// Package advert implements JXTA-style advertisements for the Consumer
// Grid: small signed-ish XML documents by which peers announce themselves,
// their pipes, their hosted module bundles and their services (§3.4 "It
// advertises its input and output nodes as JXTA pipes"; §4 "Peer naming,
// grouping, and advertising is achieved using JXTA").
//
// An advertisement carries free-form string attributes; discovery matches
// on them either exactly or with numeric lower bounds (the paper's
// "discovered based on very simple attributes – such as CPU capability
// and available free memory").
package advert

import (
	"encoding/xml"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"consumergrid/internal/frame"
)

// Kind classifies an advertisement.
type Kind string

// The advertisement kinds used by the Consumer Grid.
const (
	KindPeer    Kind = "peer"
	KindPipe    Kind = "pipe"
	KindModule  Kind = "module"
	KindService Kind = "service"
)

// Well-known attribute names.
const (
	// AttrCPUMHz advertises peer CPU capability in MHz.
	AttrCPUMHz = "cpuMHz"
	// AttrFreeRAMMB advertises available memory in MB.
	AttrFreeRAMMB = "freeRAMMB"
	// AttrGroup names the virtual peer group the publisher belongs to.
	AttrGroup = "group"
	// AttrDirection marks pipe adverts as "input" or "output".
	AttrDirection = "direction"
)

// Advertisement is one published document.
type Advertisement struct {
	Kind Kind
	// ID is unique per advertisement (publisher-assigned).
	ID string
	// PeerID identifies the publishing peer.
	PeerID string
	// Name is the advertised object's name: the pipe's unique connection
	// label, the module's unit name, the service's type.
	Name string
	// Version pins module bundles.
	Version string
	// Addr is the endpoint to contact for binding (host:port for TCP,
	// node name for simnet transports).
	Addr string
	// Expires is the wall-clock expiry; zero means never.
	Expires time.Time
	// Attributes carries discovery attributes.
	Attributes map[string]string
}

// Attr returns the named attribute or "".
func (a *Advertisement) Attr(key string) string {
	if a.Attributes == nil {
		return ""
	}
	return a.Attributes[key]
}

// SetAttr assigns an attribute, allocating the map on first use.
func (a *Advertisement) SetAttr(key, val string) {
	if a.Attributes == nil {
		a.Attributes = make(map[string]string)
	}
	a.Attributes[key] = val
}

// Expired reports whether the advert is past its expiry at time now.
func (a *Advertisement) Expired(now time.Time) bool {
	return !a.Expires.IsZero() && now.After(a.Expires)
}

// Clone deep-copies the advertisement.
func (a *Advertisement) Clone() *Advertisement {
	c := *a
	if a.Attributes != nil {
		c.Attributes = make(map[string]string, len(a.Attributes))
		for k, v := range a.Attributes {
			c.Attributes[k] = v
		}
	}
	return &c
}

// Validate reports structural problems.
func (a *Advertisement) Validate() error {
	switch a.Kind {
	case KindPeer, KindPipe, KindModule, KindService:
	default:
		return fmt.Errorf("advert: unknown kind %q", a.Kind)
	}
	if a.ID == "" {
		return fmt.Errorf("advert: missing ID")
	}
	if a.PeerID == "" {
		return fmt.Errorf("advert: missing PeerID")
	}
	if a.Kind != KindPeer && a.Name == "" {
		return fmt.Errorf("advert: %s advert missing Name", a.Kind)
	}
	return nil
}

// --- XML codec --------------------------------------------------------------

type xmlAdvert struct {
	XMLName xml.Name  `xml:"advertisement"`
	Kind    string    `xml:"kind,attr"`
	ID      string    `xml:"id,attr"`
	PeerID  string    `xml:"peer,attr"`
	Name    string    `xml:"name,attr,omitempty"`
	Version string    `xml:"version,attr,omitempty"`
	Addr    string    `xml:"addr,attr,omitempty"`
	Expires string    `xml:"expires,attr,omitempty"`
	Attrs   []xmlAttr `xml:"attr"`
}

type xmlAttr struct {
	Name  string `xml:"name,attr"`
	Value string `xml:"value,attr"`
}

// MarshalText renders the advertisement as an XML document fragment.
func (a *Advertisement) MarshalText() ([]byte, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	x := xmlAdvert{
		Kind: string(a.Kind), ID: a.ID, PeerID: a.PeerID,
		Name: a.Name, Version: a.Version, Addr: a.Addr,
	}
	if !a.Expires.IsZero() {
		x.Expires = a.Expires.UTC().Format(time.RFC3339Nano)
	}
	keys := make([]string, 0, len(a.Attributes))
	for k := range a.Attributes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		x.Attrs = append(x.Attrs, xmlAttr{Name: k, Value: a.Attributes[k]})
	}
	return xml.Marshal(x)
}

// UnmarshalText parses an XML advertisement.
func (a *Advertisement) UnmarshalText(b []byte) error {
	var x xmlAdvert
	if err := xml.Unmarshal(b, &x); err != nil {
		return fmt.Errorf("advert: bad XML: %w", err)
	}
	*a = Advertisement{
		Kind: Kind(x.Kind), ID: x.ID, PeerID: x.PeerID,
		Name: x.Name, Version: x.Version, Addr: x.Addr,
	}
	if x.Expires != "" {
		t, err := time.Parse(time.RFC3339Nano, x.Expires)
		if err != nil {
			return fmt.Errorf("advert: bad expiry: %w", err)
		}
		a.Expires = t
	}
	for _, at := range x.Attrs {
		a.SetAttr(at.Name, at.Value)
	}
	return a.Validate()
}

// --- queries ----------------------------------------------------------------

// Query selects advertisements. Zero fields match everything of the kind.
type Query struct {
	Kind Kind
	// Name matches exactly, or by prefix when it ends in '*'.
	Name string
	// PeerID restricts to one publisher when non-empty.
	PeerID string
	// Attrs must match exactly.
	Attrs map[string]string
	// MinAttrs require the advert attribute to parse as a number >= the
	// bound ("cpuMHz >= 500").
	MinAttrs map[string]float64
}

// Matches reports whether ad satisfies the query.
func (q Query) Matches(ad *Advertisement) bool {
	if q.Kind != "" && ad.Kind != q.Kind {
		return false
	}
	if q.PeerID != "" && ad.PeerID != q.PeerID {
		return false
	}
	if q.Name != "" {
		if strings.HasSuffix(q.Name, "*") {
			if !strings.HasPrefix(ad.Name, strings.TrimSuffix(q.Name, "*")) {
				return false
			}
		} else if ad.Name != q.Name {
			return false
		}
	}
	for k, v := range q.Attrs {
		if ad.Attr(k) != v {
			return false
		}
	}
	for k, bound := range q.MinAttrs {
		f, err := strconv.ParseFloat(ad.Attr(k), 64)
		if err != nil || f < bound {
			return false
		}
	}
	return true
}

// --- codec for queries (they travel inside discovery messages) --------------

type xmlQuery struct {
	XMLName xml.Name  `xml:"query"`
	Kind    string    `xml:"kind,attr,omitempty"`
	Name    string    `xml:"name,attr,omitempty"`
	PeerID  string    `xml:"peer,attr,omitempty"`
	Attrs   []xmlAttr `xml:"attr"`
	Mins    []xmlAttr `xml:"min"`
}

// MarshalText renders the query as XML: byte for byte what xml.Marshal
// makes of its xmlQuery (which stays the decoder), appended into one
// buffer sized up front. A controller encodes a query per discovery
// pull, and an xml.Encoder costs a 4 KiB buffer per call.
func (q Query) MarshalText() ([]byte, error) {
	keys := make([]string, 0, len(q.Attrs)+len(q.MinAttrs))
	for k := range q.Attrs {
		keys = append(keys, k)
	}
	attrKeys := keys
	for k := range q.MinAttrs {
		keys = append(keys, k)
	}
	minKeys := keys[len(attrKeys):]
	slices.Sort(attrKeys)
	slices.Sort(minKeys)

	size := len("<query></query>") + optAttrLen("kind", string(q.Kind)) +
		optAttrLen("name", q.Name) + optAttrLen("peer", q.PeerID)
	for _, k := range attrKeys {
		size += len(`<attr></attr>`) + xmlAttrLen("name", k) + xmlAttrLen("value", q.Attrs[k])
	}
	for _, k := range minKeys {
		size += len(`<min></min>`) + xmlAttrLen("name", k) + xmlAttrLen("value", "") + maxFloatLen
	}
	out := append(make([]byte, 0, size), "<query"...)
	out = appendOptAttr(out, "kind", string(q.Kind))
	out = appendOptAttr(out, "name", q.Name)
	out = appendOptAttr(out, "peer", q.PeerID)
	out = append(out, '>')
	for _, k := range attrKeys {
		out = append(out, "<attr"...)
		out = appendXMLAttr(out, "name", k)
		out = appendXMLAttr(out, "value", q.Attrs[k])
		out = append(out, "></attr>"...)
	}
	for _, k := range minKeys {
		out = append(out, "<min"...)
		out = appendXMLAttr(out, "name", k)
		// A formatted float holds nothing XML escapes.
		out = append(out, ` value="`...)
		out = strconv.AppendFloat(out, q.MinAttrs[k], 'g', -1, 64)
		out = append(out, `"></min>`...)
	}
	return append(out, "</query>"...), nil
}

// maxFloatLen is the longest strconv.FormatFloat(f, 'g', -1, 64), as
// in "-2.2250738585072014e-308".
const maxFloatLen = 24

// appendXMLAttr appends ` name="value"`, escaping value as encoding/xml
// escapes an attribute value.
func appendXMLAttr(dst []byte, name, value string) []byte {
	dst = append(dst, ' ')
	dst = append(dst, name...)
	dst = append(dst, '=', '"')
	dst = appendXMLEscaped(dst, value)
	return append(dst, '"')
}

// xmlAttrLen is the length appendXMLAttr appends.
func xmlAttrLen(name, value string) int { return len(name) + 4 + xmlEscapedLen(value) }

// appendOptAttr is appendXMLAttr for an omitempty attribute.
func appendOptAttr(dst []byte, name, value string) []byte {
	if value == "" {
		return dst
	}
	return appendXMLAttr(dst, name, value)
}

func optAttrLen(name, value string) int {
	if value == "" {
		return 0
	}
	return xmlAttrLen(name, value)
}

// xmlEscape is what encoding/xml writes in place of the rune r, decoded
// from width bytes, in an attribute value: a character reference for
// the markup and whitespace characters, U+FFFD for a byte that is not
// UTF-8 or a rune XML cannot carry, and "" where it copies r as is.
func xmlEscape(r rune, width int) string {
	switch r {
	case '"':
		return "&#34;"
	case '\'':
		return "&#39;"
	case '&':
		return "&amp;"
	case '<':
		return "&lt;"
	case '>':
		return "&gt;"
	case '\t':
		return "&#x9;"
	case '\n':
		return "&#xA;"
	case '\r':
		return "&#xD;"
	}
	if r < 0x20 || r > 0xD7FF && r < 0xE000 || r > 0xFFFD && r < 0x10000 || r > 0x10FFFF ||
		r == utf8.RuneError && width == 1 {
		return "\uFFFD"
	}
	return ""
}

func appendXMLEscaped(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		r, width := utf8.DecodeRuneInString(s[i:])
		i += width
		if esc := xmlEscape(r, width); esc != "" {
			dst = append(dst, s[last:i-width]...)
			dst = append(dst, esc...)
			last = i
		}
	}
	return append(dst, s[last:]...)
}

func xmlEscapedLen(s string) int {
	n := len(s)
	for i := 0; i < len(s); {
		r, width := utf8.DecodeRuneInString(s[i:])
		i += width
		if esc := xmlEscape(r, width); esc != "" {
			n += len(esc) - width
		}
	}
	return n
}

// UnmarshalText parses a query from XML.
func (q *Query) UnmarshalText(b []byte) error {
	var x xmlQuery
	if err := xml.Unmarshal(b, &x); err != nil {
		return fmt.Errorf("advert: bad query XML: %w", err)
	}
	*q = Query{Kind: Kind(x.Kind), Name: x.Name, PeerID: x.PeerID}
	for _, at := range x.Attrs {
		if q.Attrs == nil {
			q.Attrs = make(map[string]string)
		}
		q.Attrs[at.Name] = at.Value
	}
	for _, at := range x.Mins {
		f, err := strconv.ParseFloat(at.Value, 64)
		if err != nil {
			return fmt.Errorf("advert: bad min bound %q: %w", at.Value, err)
		}
		if q.MinAttrs == nil {
			q.MinAttrs = make(map[string]float64)
		}
		q.MinAttrs[at.Name] = f
	}
	return nil
}

// --- cache ------------------------------------------------------------------

// Cache is a peer's local advertisement store with expiry. Rendezvous
// peers keep large caches; edge peers keep what they have published and
// learned.
type Cache struct {
	mu  sync.RWMutex
	ads map[string]*Advertisement // by ID
	// Now is injectable for tests; defaults to time.Now.
	Now func() time.Time
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{ads: make(map[string]*Advertisement), Now: time.Now}
}

// Put stores (a clone of) the advertisement, replacing any previous
// version with the same ID.
func (c *Cache) Put(ad *Advertisement) error {
	if err := ad.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	c.ads[ad.ID] = ad.Clone()
	c.mu.Unlock()
	return nil
}

// Find returns up to limit matching, unexpired advertisements (limit <= 0
// means unlimited), sorted by ID for determinism.
func (c *Cache) Find(q Query, limit int) []*Advertisement {
	now := c.Now()
	c.mu.RLock()
	var out []*Advertisement
	for _, ad := range c.ads {
		if ad.Expired(now) || !q.Matches(ad) {
			continue
		}
		out = append(out, ad.Clone())
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// --- list codec ---------------------------------------------------------
//
// An advert list is a count followed by each advert's XML,
// length-prefixed. EncodeRawList and DecodeListFunc are the one place
// that framing is written; EncodeList and DecodeList are them over
// MarshalText and UnmarshalText, and a super-peer serves its stored
// encodings through the same pair.

// EncodeRawList frames n already-encoded adverts, item(i) being the
// i-th one's XML, in one buffer sized up front.
func EncodeRawList(n int, item func(i int) []byte) []byte {
	size := frame.UvarintLen(uint64(n))
	for i := 0; i < n; i++ {
		b := item(i)
		size += frame.UvarintLen(uint64(len(b))) + len(b)
	}
	out := frame.AppendUvarint(make([]byte, 0, size), uint64(n))
	for i := 0; i < n; i++ {
		out = frame.AppendBytes(out, item(i))
	}
	return out
}

// DecodeListFunc parses an advert list, turning each item's XML into
// an advert with decode. decode is also told the list's length, so it
// can choose how to decode by the size of the reply. The item bytes
// alias b.
func DecodeListFunc(b []byte, decode func(item []byte, n int) (*Advertisement, error)) ([]*Advertisement, error) {
	r := frame.NewReader(b)
	out := make([]*Advertisement, r.Count(1))
	for i := range out {
		item := r.Bytes(r.Len())
		if r.Err() != nil {
			break
		}
		ad, err := decode(item, len(out))
		if err != nil {
			return nil, err
		}
		out[i] = ad
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("advert: list: %w", err)
	}
	return out, nil
}

// EncodeList frames a slice of advertisements for transport payloads.
func EncodeList(ads []*Advertisement) ([]byte, error) {
	items := make([][]byte, len(ads))
	for i, ad := range ads {
		b, err := ad.MarshalText()
		if err != nil {
			return nil, err
		}
		items[i] = b
	}
	return EncodeRawList(len(items), func(i int) []byte { return items[i] }), nil
}

// DecodeList parses a payload written by EncodeList.
func DecodeList(b []byte) ([]*Advertisement, error) {
	return DecodeListFunc(b, func(item []byte, _ int) (*Advertisement, error) {
		ad := new(Advertisement)
		if err := ad.UnmarshalText(item); err != nil {
			return nil, err
		}
		return ad, nil
	})
}
