// The chunk manifest: what a controller sends instead of payload
// bytes. One manifest describes one farm chunk — the ordered digest
// list the donor must materialise, plus per-digest fetch hints (ring
// replica addresses, donors observed to hold the chunk) and the
// controller's own address as the fallback of last resort. The binary
// layout is uvarint length-prefixed, version-tagged, and bounded on
// decode so a hostile manifest cannot balloon allocation.
package chunkstore

import (
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

// Item is one datum of the chunk: its content digest and where to look
// for it before falling back to the origin.
type Item struct {
	Digest string
	Ring   []string // super-peer replicas, consistent-hash placed
	Peers  []string // donors that resolved this digest earlier
}

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

// EncodeManifest renders a manifest to its wire payload.
func EncodeManifest(m *Manifest) []byte {
	size := 1 + frame.StringLen(m.Origin) + frame.UvarintLen(uint64(len(m.Items)))
	for _, it := range m.Items {
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

// DecodeManifest parses a wire payload, rejecting unknown versions and
// anything that exceeds the decode bounds.
func DecodeManifest(p []byte) (*Manifest, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("chunkstore: empty manifest")
	}
	if p[0] != manifestVersion {
		return nil, fmt.Errorf("chunkstore: manifest version %d not supported", p[0])
	}
	r := frame.NewReader(p[1:])
	m := &Manifest{Origin: r.String(maxManifestAddr)}
	// An item is at least a digest and two hint counts.
	n := r.Count(4)
	if n > maxManifestItems {
		return nil, fmt.Errorf("chunkstore: manifest lists %d items (max %d)", n, maxManifestItems)
	}
	m.Items = make([]Item, n)
	for i := range m.Items {
		it := &m.Items[i]
		if it.Digest = r.String(maxManifestAddr); it.Digest == "" {
			r.Fail(fmt.Errorf("item %d: empty digest", i))
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
