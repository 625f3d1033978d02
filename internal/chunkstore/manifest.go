// The chunk manifest: what a controller sends instead of payload
// bytes. One manifest describes one farm chunk — the ordered list of
// datums the donor must materialise. A datum longer than MaxInline
// travels by reference: its digest plus fetch hints (ring replica
// addresses, donors observed to hold the chunk), with the controller's
// own address as the fallback of last resort. A datum no longer than
// its own hex digest travels by value, its bytes inline. The binary
// layout is uvarint length-prefixed, version-tagged, and bounded on
// decode so a hostile manifest cannot balloon allocation.
package chunkstore

import (
	"crypto/sha256"
	"fmt"

	"consumergrid/internal/frame"
)

// Manifest is the metadata a donor turns back into chunk payloads.
type Manifest struct {
	// Origin is the controller's host address — always fetchable, so a
	// manifest can be resolved even with an empty cache, dead ring and
	// no peer hints.
	Origin string
	// Items lists the chunk's data in delivery order.
	Items []Item
}

// Item is one datum of the chunk. A by-reference item carries its
// content digest and where to look for it before falling back to the
// origin; a by-value item carries the datum's bytes in Data and nothing
// else.
type Item struct {
	Digest string
	Ring   []string // super-peer replicas, consistent-hash placed
	Peers  []string // donors that resolved this digest earlier
	Data   []byte   // by value: 1..MaxInline bytes, Digest empty
}

// MaxInline is the longest datum a manifest carries by value: the
// length of a hex digest. A by-value item is never larger than the
// digest a by-reference item must carry anyway, so inlining it costs
// the manifest nothing and saves the pin, the ring put and the fetch.
const MaxInline = 2 * sha256.Size

// Sources flattens an item's hints into the fetch ladder order the
// Store consumes: ring replicas, then peer hints, then the origin.
func (m *Manifest) Sources(it Item) []Source {
	out := make([]Source, 0, len(it.Ring)+len(it.Peers)+1)
	for _, a := range it.Ring {
		out = append(out, Source{Addr: a, Class: SourceRing})
	}
	for _, a := range it.Peers {
		out = append(out, Source{Addr: a, Class: SourcePeer})
	}
	if m.Origin != "" {
		out = append(out, Source{Addr: m.Origin, Class: SourceController})
	}
	return out
}

const (
	manifestVersion = 1

	// Decode bounds: a manifest names one farm chunk, so these are
	// generous by an order of magnitude. Anything larger is rejected as
	// hostile rather than allocated.
	maxManifestItems = 1 << 16
	maxManifestAddr  = 1 << 12
	maxManifestHints = 256
)

// EncodeManifest renders a manifest to its wire payload. A by-value
// item is an empty digest followed by its length-prefixed bytes; a
// by-reference item is its digest followed by the two hint lists.
func EncodeManifest(m *Manifest) []byte {
	size := 1 + frame.StringLen(m.Origin) + frame.UvarintLen(uint64(len(m.Items)))
	for _, it := range m.Items {
		if it.Digest == "" {
			size += 1 + frame.UvarintLen(uint64(len(it.Data))) + len(it.Data)
			continue
		}
		size += frame.StringLen(it.Digest) + frame.UvarintLen(uint64(len(it.Ring))) + frame.UvarintLen(uint64(len(it.Peers)))
		for _, a := range it.Ring {
			size += frame.StringLen(a)
		}
		for _, a := range it.Peers {
			size += frame.StringLen(a)
		}
	}
	out := make([]byte, 0, size)
	out = append(out, manifestVersion)
	out = frame.AppendString(out, m.Origin)
	out = frame.AppendUvarint(out, uint64(len(m.Items)))
	for _, it := range m.Items {
		out = frame.AppendString(out, it.Digest)
		if it.Digest == "" {
			out = frame.AppendBytes(out, it.Data)
			continue
		}
		out = frame.AppendUvarint(out, uint64(len(it.Ring)))
		for _, a := range it.Ring {
			out = frame.AppendString(out, a)
		}
		out = frame.AppendUvarint(out, uint64(len(it.Peers)))
		for _, a := range it.Peers {
			out = frame.AppendString(out, a)
		}
	}
	return out
}

// DecodeManifest parses a wire payload, rejecting unknown versions,
// anything that exceeds the decode bounds, and by-value items outside
// 1..MaxInline bytes. A by-value item's Data is a view into p.
func DecodeManifest(p []byte) (*Manifest, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("chunkstore: empty manifest")
	}
	if p[0] != manifestVersion {
		return nil, fmt.Errorf("chunkstore: manifest version %d not supported", p[0])
	}
	r := frame.NewReader(p[1:])
	m := &Manifest{Origin: r.String(maxManifestAddr)}
	// An item is at least an empty digest and one inline byte, or a
	// digest and two hint counts.
	n := r.Count(3)
	if n > maxManifestItems {
		return nil, fmt.Errorf("chunkstore: manifest lists %d items (max %d)", n, maxManifestItems)
	}
	m.Items = make([]Item, n)
	for i := range m.Items {
		it := &m.Items[i]
		if it.Digest = r.String(maxManifestAddr); it.Digest == "" {
			if it.Data = r.Bytes(MaxInline); r.Err() == nil && len(it.Data) == 0 {
				r.Fail(fmt.Errorf("item %d: empty by-value datum", i))
			}
			continue
		}
		it.Ring = readAddrList(&r)
		it.Peers = readAddrList(&r)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("chunkstore: manifest: %w", err)
	}
	return m, nil
}

func readAddrList(r *frame.Reader) []string {
	n := r.Count(1)
	if n > maxManifestHints {
		r.Fail(fmt.Errorf("%d hints (max %d)", n, maxManifestHints))
	}
	if n == 0 || r.Err() != nil {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.String(maxManifestAddr)
	}
	return out
}
