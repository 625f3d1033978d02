// Package mcode implements the Consumer Grid's mobile-code machinery:
// the stand-in for Triana's on-demand download of Java bytecode (§3:
// "the peer can request executable code for modules that are present
// within the connectivity graph ... the executable must be requested from
// the owner whenever an execution is to be undertaken").
//
// Go cannot load code at runtime, so a module travels as a *bundle*: the
// unit's full metadata plus a deterministic payload standing in for the
// class files, checksummed and versioned. A peer may execute a unit only
// when its store holds a bundle matching the registry version — the same
// observable contract as Triana's (on-demand transfer, owner-is-source
// version consistency, eviction on memory-constrained devices), with the
// factory lookup replacing bytecode loading (see DESIGN.md ledger).
package mcode

import (
	"container/list"
	"encoding/xml"
	"fmt"
	"hash/fnv"
	"sync"

	"consumergrid/internal/frame"
	"consumergrid/internal/metrics"
	"consumergrid/internal/units"
)

// Live bundle-cache series, aggregated across every Store in the
// process and registered eagerly so /metrics lists them from startup.
var (
	storeHits      = metrics.Default().Counter("mcode_store_hits_total")
	storeMisses    = metrics.Default().Counter("mcode_store_misses_total")
	storeEvictions = metrics.Default().Counter("mcode_store_evictions_total")
	fetchesTotal   = metrics.Default().Counter("mcode_fetches_total")
	fetchedBytes   = metrics.Default().Counter("mcode_fetched_bytes_total")
)

// Bundle is one transferable module.
type Bundle struct {
	// Unit is the registered unit name the bundle implements.
	Unit string
	// Version is the bundle revision; execution requires an exact match
	// with the local registry.
	Version string
	// Payload carries the serialized unit definition followed by the
	// synthetic code block; its length models the transfer cost of the
	// class files.
	Payload []byte
	// Checksum is the FNV-64a of the payload, hex-encoded.
	Checksum string
}

// Size reports the bundle's transfer size in bytes.
func (b *Bundle) Size() int64 { return int64(len(b.Payload)) }

// checksum computes the payload digest.
func checksum(payload []byte) string {
	h := fnv.New64a()
	h.Write(payload)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Verify reports whether the checksum matches the payload.
func (b *Bundle) Verify() bool { return b.Checksum == checksum(b.Payload) }

// codeBlockBase and codeBlockPerParam size the synthetic code block: a
// few KiB per unit, more for heavily-parameterised units, roughly the
// footprint of a small Java class bundle.
const (
	codeBlockBase     = 4096
	codeBlockPerParam = 256
)

// bundleDef is the XML definition section of a payload.
type bundleDef struct {
	XMLName     xml.Name `xml:"module"`
	Unit        string   `xml:"unit,attr"`
	Version     string   `xml:"version,attr"`
	Description string   `xml:"description"`
	In          int      `xml:"in,attr"`
	Out         int      `xml:"out,attr"`
	Params      []string `xml:"param"`
}

// BundleFor builds the bundle for a registered unit from the local
// registry — the operation a module *owner* performs when serving a
// fetch.
func BundleFor(unit string) (*Bundle, error) {
	meta, ok := units.Lookup(unit)
	if !ok {
		return nil, fmt.Errorf("mcode: unit %q not registered here", unit)
	}
	def := bundleDef{
		Unit: meta.Name, Version: meta.Version,
		Description: meta.Description, In: meta.In, Out: meta.Out,
	}
	for _, p := range meta.Params {
		def.Params = append(def.Params, p.Name)
	}
	head, err := xml.Marshal(def)
	if err != nil {
		return nil, err
	}
	// Deterministic synthetic code block, seeded from the unit name so
	// different units produce different bytes (checksums must differ).
	blockLen := codeBlockBase + codeBlockPerParam*len(meta.Params)
	payload := make([]byte, 0, len(head)+blockLen)
	payload = append(payload, head...)
	h := fnv.New64a()
	h.Write([]byte(meta.Name + "/" + meta.Version))
	seed := h.Sum64()
	for i := 0; i < blockLen; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		payload = append(payload, byte(seed>>56))
	}
	return &Bundle{
		Unit: meta.Name, Version: meta.Version,
		Payload: payload, Checksum: checksum(payload),
	}, nil
}

// Marshal frames the bundle for the wire.
func (b *Bundle) Marshal() []byte {
	out := frame.AppendString(nil, b.Unit)
	out = frame.AppendString(out, b.Version)
	out = frame.AppendString(out, b.Checksum)
	return frame.AppendBytes(out, b.Payload)
}

// UnmarshalBundle parses a framed bundle and verifies its checksum.
func UnmarshalBundle(p []byte) (*Bundle, error) {
	r := frame.NewReader(p)
	b := &Bundle{Unit: r.String(len(p)), Version: r.String(len(p)), Checksum: r.String(len(p))}
	b.Payload = append([]byte(nil), r.Bytes(len(p))...)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("mcode: bundle: %w", err)
	}
	if !b.Verify() {
		return nil, fmt.Errorf("mcode: checksum mismatch for %s", b.Unit)
	}
	return b, nil
}

// --- store ------------------------------------------------------------------

// Store is a peer's local module cache with an optional byte budget and
// LRU eviction — the "resource-constrained device may ... selectively
// download and release executable modules" model for handhelds.
type Store struct {
	budget int64 // 0 = unlimited

	mu      sync.Mutex
	entries map[string]*list.Element // key: unit@version
	order   *list.List               // front = most recent
	used    int64

	hits, misses, evictions int64
}

type storeEntry struct {
	key    string
	bundle *Bundle
}

// NewStore creates a store with the given byte budget (0 = unlimited).
func NewStore(budget int64) *Store {
	return &Store{
		budget:  budget,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

func key(unit, version string) string { return unit + "@" + version }

// Put inserts a bundle, evicting least-recently-used bundles to respect
// the budget. A bundle larger than the whole budget is rejected.
func (s *Store) Put(b *Bundle) error {
	if !b.Verify() {
		return fmt.Errorf("mcode: refusing unverified bundle %s", b.Unit)
	}
	size := b.Size()
	if s.budget > 0 && size > s.budget {
		return fmt.Errorf("mcode: bundle %s (%d bytes) exceeds store budget %d",
			b.Unit, size, s.budget)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	k := key(b.Unit, b.Version)
	if el, ok := s.entries[k]; ok {
		s.order.MoveToFront(el)
		old := el.Value.(*storeEntry)
		s.used += size - old.bundle.Size()
		old.bundle = b
	} else {
		s.entries[k] = s.order.PushFront(&storeEntry{key: k, bundle: b})
		s.used += size
	}
	for s.budget > 0 && s.used > s.budget {
		back := s.order.Back()
		if back == nil {
			break
		}
		e := back.Value.(*storeEntry)
		if e.key == k {
			// Do not evict what we just inserted; cannot happen unless
			// it is the only entry, in which case budget was validated.
			break
		}
		s.order.Remove(back)
		delete(s.entries, e.key)
		s.used -= e.bundle.Size()
		s.evictions++
		storeEvictions.Inc()
	}
	return nil
}

// Get returns the cached bundle, refreshing its recency.
func (s *Store) Get(unit, version string) (*Bundle, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key(unit, version)]
	if !ok {
		s.misses++
		storeMisses.Inc()
		return nil, false
	}
	s.hits++
	storeHits.Inc()
	s.order.MoveToFront(el)
	return el.Value.(*storeEntry).bundle, true
}

// Has reports presence without affecting recency or counters.
func (s *Store) Has(unit, version string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key(unit, version)]
	return ok
}

// Remove drops a bundle (the explicit "release" of the handheld model).
func (s *Store) Remove(unit, version string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key(unit, version)]
	if !ok {
		return false
	}
	s.order.Remove(el)
	delete(s.entries, key(unit, version))
	s.used -= el.Value.(*storeEntry).bundle.Size()
	return true
}

// Used reports bytes currently held.
func (s *Store) Used() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// Len reports bundles currently held.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Counters reports (hits, misses, evictions).
func (s *Store) Counters() (hits, misses, evictions int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses, s.evictions
}
