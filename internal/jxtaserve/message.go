// Package jxtaserve is the from-scratch stand-in for the JXTAServe API
// the Triana project layered over JXTA (§3.4): named virtual pipes that
// services advertise and bind by connection label, plus a small
// request/response facility for control traffic. "It implements the basic
// functionality that an application needs and hides the complexity of the
// details of JXTA from developers."
//
// Wire format: every message is an envelope (stream, kind and string
// headers) followed by an opaque payload, both length-prefixed, framed
// in binary v1 (binary.go) on every TCP conn and multiplexed into
// streams over one session per peer pair (mux.go). Payloads carry the
// binary types codec. WriteMessage and ReadMessage frame the same
// envelope as XML; no peer speaks them any more, and they remain only
// as the baseline the codec benchmarks compare against.
package jxtaserve

import (
	"bytes"
	"encoding/binary"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"unicode/utf8"
)

// Message kinds used across the Consumer Grid. Subsystems may define
// more; the transport is agnostic.
const (
	KindPipeBind = "pipe.bind" // headers: pipe (name); opens a data stream
	KindPipeData = "pipe.data" // payload: one encoded types.Data
	KindPipeEOF  = "pipe.eof"  // sender finished; counts toward the pipe's expected EOFs
	KindRPC      = "rpc"       // headers: method; payload: request body
	KindRPCReply = "rpc.reply" // payload: response body
	KindRPCError = "rpc.error" // headers: error

	// Content-addressed data tier (the chunkstore): chunk.fetch and
	// chunk.data are the one-shot digest-lookup conversation any peer
	// with a chunk source answers.
	KindChunkFetch = "chunk.fetch" // headers: digest, from; asks for one chunk
	KindChunkData  = "chunk.data"  // headers: digest; payload: the chunk bytes
)

// HeaderResults, on an rpc.reply, says its payload ends in a job's
// result list; its value is the item count. A farm's outputs come home
// this way (triana.wait), so the simulated network's byzantine fault
// keys on it.
const HeaderResults = "results"

// Message is one framed unit on a connection.
type Message struct {
	Kind    string
	Headers map[string]string
	Payload []byte
	// Stream is the mux stream ID carrying this message; zero means it
	// rides no stream: the session hello, or a conversation on a bare
	// transport conn. The ID is framed outside the header map, so the
	// demultiplexer on the far side routes it without touching the
	// headers.
	Stream uint64
}

// Header returns the named header or "".
func (m *Message) Header(key string) string {
	if m.Headers == nil {
		return ""
	}
	return m.Headers[key]
}

// SetHeader assigns a header, allocating the map on first use.
func (m *Message) SetHeader(key, val string) {
	if m.Headers == nil {
		m.Headers = make(map[string]string)
	}
	m.Headers[key] = val
}

// Limits protecting hosts from malformed or hostile frames.
const (
	maxEnvelopeLen = 1 << 20   // 1 MiB of envelope
	maxPayloadLen  = 256 << 20 // 256 MiB payload
)

// ErrFrameTooLarge is returned when a frame exceeds the wire limits.
var ErrFrameTooLarge = errors.New("jxtaserve: frame exceeds size limit")

type xmlEnvelope struct {
	XMLName xml.Name    `xml:"message"`
	Kind    string      `xml:"kind,attr"`
	Stream  uint64      `xml:"stream,attr,omitempty"`
	Headers []xmlHeader `xml:"header"`
}

type xmlHeader struct {
	Name  string `xml:"name,attr"`
	Value string `xml:"value,attr"`
}

// ErrBadHeader is returned when a kind or header string cannot survive
// the XML envelope (invalid UTF-8 or control characters: encoding/xml
// would emit character references the decoder rejects, so the frame
// could never be read back).
var ErrBadHeader = errors.New("jxtaserve: kind or header not XML-safe")

// xmlSafe reports whether s round-trips through an XML attribute:
// valid UTF-8 and only characters XML 1.0 permits.
func xmlSafe(s string) bool {
	if !utf8.ValidString(s) {
		return false
	}
	for _, r := range s {
		switch {
		case r == '\t' || r == '\n' || r == '\r':
		case r < 0x20:
			return false
		case r == 0xFFFE || r == 0xFFFF:
			return false
		}
	}
	return true
}

// envScratch is the per-WriteMessage working set: the envelope bytes and
// the sorted header keys. Pooling it makes framing allocation-free for
// the steady-state pipe.data traffic.
type envScratch struct {
	buf  bytes.Buffer
	keys []string
}

var envPool = sync.Pool{New: func() any { return new(envScratch) }}

// WriteMessage frames m onto w. The XML envelope is rendered by hand
// into a pooled buffer — it is a fixed two-element grammar, so going
// through encoding/xml's reflective marshaller only costs allocations —
// and the decoder still reads it with xml.Unmarshal, which accepts both
// this form and the reflective one.
func WriteMessage(w io.Writer, m *Message) error {
	if m.Kind == "" {
		return errors.New("jxtaserve: message without kind")
	}
	if !xmlSafe(m.Kind) {
		return ErrBadHeader
	}
	for k, v := range m.Headers {
		if !xmlSafe(k) || !xmlSafe(v) {
			return ErrBadHeader
		}
	}
	scratch := envPool.Get().(*envScratch)
	defer func() {
		scratch.buf.Reset()
		scratch.keys = scratch.keys[:0]
		envPool.Put(scratch)
	}()
	for k := range m.Headers {
		scratch.keys = append(scratch.keys, k)
	}
	sort.Strings(scratch.keys)

	buf := &scratch.buf
	buf.WriteString(`<message kind="`)
	writeXMLAttr(buf, m.Kind)
	if m.Stream != 0 {
		buf.WriteString(`" stream="`)
		buf.WriteString(strconv.FormatUint(m.Stream, 10))
	}
	buf.WriteString(`">`)
	for _, k := range scratch.keys {
		buf.WriteString(`<header name="`)
		writeXMLAttr(buf, k)
		buf.WriteString(`" value="`)
		writeXMLAttr(buf, m.Headers[k])
		buf.WriteString(`"></header>`)
	}
	buf.WriteString(`</message>`)

	if buf.Len() > maxEnvelopeLen || len(m.Payload) > maxPayloadLen {
		return ErrFrameTooLarge
	}
	var hdr [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(buf.Len()))
	n += binary.PutUvarint(hdr[n:], uint64(len(m.Payload)))
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := w.Write(buf.Bytes()); err != nil {
		return err
	}
	if len(m.Payload) > 0 {
		if _, err := w.Write(m.Payload); err != nil {
			return err
		}
	}
	wireMsgsOut.Inc()
	wireBytesOut.Add(int64(n) + int64(buf.Len()) + int64(len(m.Payload)))
	return nil
}

// writeXMLAttr escapes s for an XML attribute value. Every character
// needing escape is ASCII, so the byte loop passes multi-byte UTF-8
// through untouched; xmlSafe has already rejected anything the XML 1.0
// charset forbids.
func writeXMLAttr(buf *bytes.Buffer, s string) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '&':
			buf.WriteString("&amp;")
		case '<':
			buf.WriteString("&lt;")
		case '>':
			buf.WriteString("&gt;")
		case '"':
			buf.WriteString("&quot;")
		case '\'':
			buf.WriteString("&apos;")
		case '\t':
			buf.WriteString("&#x9;")
		case '\n':
			buf.WriteString("&#xA;")
		case '\r':
			buf.WriteString("&#xD;")
		default:
			buf.WriteByte(c)
		}
	}
}

// ReadMessage reads one framed message from r.
func ReadMessage(r io.Reader) (*Message, error) {
	br, ok := r.(io.ByteReader)
	if !ok {
		br = &byteReader{r: r}
	}
	envLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	payloadLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if envLen > maxEnvelopeLen || payloadLen > maxPayloadLen {
		return nil, ErrFrameTooLarge
	}
	// The envelope bytes live only until xml.Unmarshal copies the attr
	// strings out, so the slab is pooled rather than allocated per frame.
	slab := envSlabPool.Get().(*[]byte)
	defer envSlabPool.Put(slab)
	if uint64(cap(*slab)) < envLen {
		*slab = make([]byte, envLen)
	}
	envBytes := (*slab)[:envLen]
	if _, err := io.ReadFull(r, envBytes); err != nil {
		return nil, err
	}
	var env xmlEnvelope
	if err := xml.Unmarshal(envBytes, &env); err != nil {
		return nil, fmt.Errorf("jxtaserve: bad envelope: %w", err)
	}
	if env.Kind == "" {
		return nil, errors.New("jxtaserve: envelope without kind")
	}
	m := &Message{Kind: env.Kind, Stream: env.Stream}
	for _, h := range env.Headers {
		m.SetHeader(h.Name, h.Value)
	}
	if payloadLen > 0 {
		p, err := readPayload(r, payloadLen)
		if err != nil {
			return nil, err
		}
		m.Payload = p
	}
	wireMsgsIn.Inc()
	wireBytesIn.Add(int64(envLen) + int64(payloadLen))
	return m, nil
}

var envSlabPool = sync.Pool{New: func() any {
	b := make([]byte, 512)
	return &b
}}

// readPayload reads n bytes, growing the buffer in bounded chunks so a
// lying length prefix cannot make us allocate hundreds of megabytes for
// a stream that ends after a few bytes: capacity never exceeds twice the
// bytes that have actually arrived (clamped to n). Each chunk is read
// with io.ReadFull directly into the tail of the buffer — no zero-filled
// temporaries, no append re-copying beyond the amortized doubling.
func readPayload(r io.Reader, n uint64) ([]byte, error) {
	const chunk = 1 << 20 // read (and initially trust) 1 MiB at a time
	if n <= chunk {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	buf := make([]byte, chunk)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	for uint64(len(buf)) < n {
		step := n - uint64(len(buf))
		if step > chunk {
			step = chunk
		}
		start := uint64(len(buf))
		if uint64(cap(buf)) < start+step {
			newCap := 2 * uint64(cap(buf))
			if newCap > n {
				newCap = n
			}
			grown := make([]byte, start, newCap)
			copy(grown, buf)
			buf = grown
		}
		buf = buf[:start+step]
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// byteReader adapts an io.Reader lacking ReadByte. It reads one byte at a
// time, which is acceptable because both real transports hand us buffered
// readers.
type byteReader struct {
	r   io.Reader
	buf [1]byte
}

func (b *byteReader) ReadByte() (byte, error) {
	_, err := io.ReadFull(b.r, b.buf[:])
	return b.buf[0], err
}
