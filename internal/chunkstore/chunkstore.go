// Package chunkstore is the content-addressed data tier that turns the
// controller from data hub into metadata broker. Farm input data is
// named by the SHA-256 of its canonical wire encoding (the same
// encoding the quorum digests already hash), which makes chunks
// immutable, cacheable anywhere, and verifiable on receipt: a donor
// can fetch a chunk from an untrusted sibling and know byte-for-byte
// that it got the right data, because the name *is* the hash.
//
// A Store is one peer's view of the tier: a byte-budget LRU cache plus
// a singleflight fetch path that resolves a digest through the fallback
// ladder — local cache, super-peer ring replica, a donor that is known
// to hold it, and finally the controller itself. Speculative backups
// and quorum voters for the same chunk therefore hit the cache (or
// coalesce onto one in-flight fetch) instead of forcing the controller
// to re-stream the same bytes per attempt. A pinned entry stays until
// its last pin drops, and then leaves the store. A held entry is
// charged to the budget like a cached one but is never evicted; when
// its last hold drops it rejoins the LRU.
//
// A datum no longer than its own hex digest (MaxInline bytes) is not
// addressed at all: the manifest carries it by value, so it never
// enters a Store.
package chunkstore

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"consumergrid/internal/metrics"
	"consumergrid/internal/types"
)

// Source classes, in ladder order. SourceLocal covers both a warm
// cache entry and a fetch coalesced onto another goroutine's in-flight
// fetch — either way no new bytes crossed the wire for this caller.
const (
	SourceLocal      = "local"
	SourceRing       = "ring"
	SourcePeer       = "peer"
	SourceController = "controller"
)

// ErrNotFound reports that a digest was resolvable from no source.
var ErrNotFound = errors.New("chunkstore: chunk not found")

// Digest names a chunk: the lowercase hex SHA-256 of its bytes.
func Digest(p []byte) string {
	sum := sha256.Sum256(p)
	return hex.EncodeToString(sum[:])
}

// DigestData marshals one datum through the canonical types encoding
// and names the result. The returned payload is exactly what a donor
// will unmarshal after fetching the digest.
func DigestData(d types.Data) (digest string, payload []byte, err error) {
	p, err := types.Marshal(d)
	if err != nil {
		return "", nil, err
	}
	return Digest(p), p, nil
}

// Source is one place a digest may be fetched from, tagged with the
// ladder class it belongs to (ring replica, donor peer, controller).
type Source struct {
	Addr  string
	Class string
}

// FetchFunc performs one wire fetch of a digest from a peer address.
// The Store verifies the returned bytes against the digest, so the
// function may talk to untrusted peers.
type FetchFunc func(addr, digest string) ([]byte, error)

// Options configures a Store.
type Options struct {
	// MaxBytes bounds the unpinned cache, each entry charged its
	// payload plus entryOverhead; 0 means the 64 MiB default. Pinned
	// entries (a controller's live farm chunks) are exempt from
	// eviction and from the budget.
	MaxBytes int64
	// Owner labels this store's metric series, normally the peer ID.
	Owner string
	// Registry receives the chunkstore_* series; nil means the
	// process-default registry.
	Registry *metrics.Registry
	// Logf, when set, receives fetch-ladder diagnostics.
	Logf func(format string, args ...any)
}

// DefaultMaxBytes is the cache budget when Options.MaxBytes is zero.
const DefaultMaxBytes int64 = 64 << 20

// entryOverhead is what an entry costs the heap beyond its payload:
// the hex digest key, the entry, its LRU element and its map slot
// (211–229 B measured on amd64). Charging it keeps the budget a bound
// on real memory when chunks are tiny, where the overhead outweighs
// the payload.
const entryOverhead = 224

// charge is what an entry of n payload bytes counts against the budget.
func charge(n int) int64 { return int64(n) + entryOverhead }

type entry struct {
	digest string
	data   []byte
	pins   int
	holds  int
	elem   *list.Element // nil while pinned or held (off the LRU list)
}

type call struct {
	done  chan struct{}
	data  []byte
	class string
	err   error
}

// Store is one peer's chunk cache and fetch path. All methods are safe
// for concurrent use.
type Store struct {
	opts Options

	mu       sync.Mutex
	entries  map[string]*entry
	lru      *list.List // front = most recent
	bytes    int64      // unpinned charge: payload + entryOverhead per entry, held ones included
	inflight map[string]*call

	hits, misses    *metrics.Counter
	evictions       *metrics.Counter
	digestMismatch  *metrics.Counter
	bytesSaved      *metrics.Counter
	fetchRing       *metrics.Counter
	fetchPeer       *metrics.Counter
	fetchController *metrics.Counter
	cacheBytes      *metrics.Gauge
	fetchedBytes    atomic.Int64 // payload bytes the ladder brought in
}

// New creates a Store and eagerly registers its metric series, so a
// fresh daemon's first scrape already lists the chunkstore families.
func New(opts Options) *Store {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	reg := opts.Registry
	if reg == nil {
		reg = metrics.Default()
	}
	s := &Store{
		opts:     opts,
		entries:  make(map[string]*entry),
		lru:      list.New(),
		inflight: make(map[string]*call),

		hits:            reg.Counter(metrics.Series("chunkstore_cache_hits_total", "peer", opts.Owner)),
		misses:          reg.Counter(metrics.Series("chunkstore_cache_misses_total", "peer", opts.Owner)),
		evictions:       reg.Counter(metrics.Series("chunkstore_evictions_total", "peer", opts.Owner)),
		digestMismatch:  reg.Counter(metrics.Series("chunkstore_digest_mismatch_total", "peer", opts.Owner)),
		bytesSaved:      reg.Counter(metrics.Series("chunkstore_bytes_saved_total", "peer", opts.Owner)),
		fetchRing:       reg.Counter(metrics.Series("chunkstore_fetch_total", "peer", opts.Owner, "source", SourceRing)),
		fetchPeer:       reg.Counter(metrics.Series("chunkstore_fetch_total", "peer", opts.Owner, "source", SourcePeer)),
		fetchController: reg.Counter(metrics.Series("chunkstore_fetch_total", "peer", opts.Owner, "source", SourceController)),
		cacheBytes:      reg.Gauge(metrics.Series("chunkstore_cache_bytes", "peer", opts.Owner)),
	}
	return s
}

func (s *Store) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Get looks a digest up locally without touching the fetch path; it is
// the hook a Host serves chunk-fetch requests from. A hit refreshes
// the entry's LRU position.
func (s *Store) Get(digest string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[digest]
	if !ok {
		return nil, false
	}
	if e.elem != nil {
		s.lru.MoveToFront(e.elem)
	}
	return e.data, true
}

// Lookup is Get plus the entry's pin state, for callers that account
// pinned serves differently (a controller serving its own live farm
// chunks counts those bytes as farm egress).
func (s *Store) Lookup(digest string) (data []byte, pinned, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[digest]
	if !ok {
		return nil, false, false
	}
	if e.elem != nil {
		s.lru.MoveToFront(e.elem)
	}
	return e.data, e.pins > 0, true
}

// Put inserts a chunk, evicting least-recently-used entries to stay
// inside the byte budget. Chunks are immutable, so a duplicate Put is
// a no-op beyond an LRU refresh. The data slice is retained; callers
// must not mutate it (the same aliasing contract the COW data plane
// imposes on sealed payloads).
func (s *Store) Put(digest string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.putLocked(digest, data, false)
}

// Pin inserts a chunk and protects it from eviction until Unpin — how
// a controller keeps a live farm's chunks servable for the
// controller-direct fallback regardless of cache pressure. Pins nest.
func (s *Store) Pin(digest string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.putLocked(digest, data, true)
}

// Unpin releases one pin; when the last pin drops the entry leaves the
// store — unless it is held, and then it is charged again. Whoever
// pinned a chunk was its reason to be resident: a finished farm's
// stragglers are reaped before it releases, and the next farm pins its
// own payloads, so nothing would read it again.
func (s *Store) Unpin(digest string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[digest]
	if !ok || e.pins == 0 {
		return
	}
	if e.pins--; e.pins == 0 {
		if e.holds > 0 {
			s.bytes += charge(len(e.data))
			s.cacheBytes.Set(float64(s.bytes))
		} else {
			delete(s.entries, digest)
		}
	}
}

// Hold inserts a chunk charged to the byte budget, as Put does, but
// keeps it from eviction until Release: how a donor keeps an output it
// listed by address servable until its controller is done with it.
// Holds nest. Making room evicts only cached entries, so held bytes
// may exceed the budget: the caller bounds them.
func (s *Store) Hold(digest string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[digest]
	if !ok {
		e = &entry{digest: digest, data: data}
		s.entries[digest] = e
		s.bytes += charge(len(data))
	}
	e.holds++
	if e.elem != nil {
		s.lru.Remove(e.elem)
		e.elem = nil
	}
	s.evictLocked()
	s.cacheBytes.Set(float64(s.bytes))
}

// Release drops one hold; when the last drops, an unpinned entry
// rejoins the LRU as its most recent entry.
func (s *Store) Release(digest string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[digest]
	if !ok || e.holds == 0 {
		return
	}
	if e.holds--; e.holds == 0 && e.pins == 0 {
		e.elem = s.lru.PushFront(e)
		s.evictLocked()
		s.cacheBytes.Set(float64(s.bytes))
	}
}

func (s *Store) putLocked(digest string, data []byte, pin bool) {
	if e, ok := s.entries[digest]; ok {
		if pin {
			if e.pins == 0 {
				if e.elem != nil {
					s.lru.Remove(e.elem)
					e.elem = nil
				}
				s.bytes -= charge(len(e.data))
			}
			e.pins++
		} else if e.elem != nil {
			s.lru.MoveToFront(e.elem)
		}
		s.cacheBytes.Set(float64(s.bytes))
		return
	}
	e := &entry{digest: digest, data: data}
	s.entries[digest] = e
	if pin {
		e.pins = 1
	} else {
		e.elem = s.lru.PushFront(e)
		s.bytes += charge(len(data))
		s.evictLocked()
	}
	s.cacheBytes.Set(float64(s.bytes))
}

func (s *Store) evictLocked() {
	for s.bytes > s.opts.MaxBytes {
		back := s.lru.Back()
		if back == nil {
			return
		}
		e := back.Value.(*entry)
		s.lru.Remove(back)
		delete(s.entries, e.digest)
		s.bytes -= charge(len(e.data))
		s.evictions.Inc()
	}
}

// Len reports the number of resident chunks (pinned included).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Budget is the byte budget the cached and held entries share.
func (s *Store) Budget() int64 { return s.opts.MaxBytes }

// Bytes reports what the unpinned entries count against the budget:
// their payload plus entryOverhead each. The chunkstore_cache_bytes
// gauge and Stats.CacheBytes report the same figure.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Fetch resolves a digest through the fallback ladder: local cache,
// then each source in order, verifying every fetched payload against
// the digest (a corrupt or byzantine source is skipped, not trusted).
// Concurrent fetches of the same digest coalesce onto one wire fetch.
// The returned class names where the bytes came from.
func (s *Store) Fetch(digest string, sources []Source, fetch FetchFunc) ([]byte, string, error) {
	s.mu.Lock()
	if e, ok := s.entries[digest]; ok {
		if e.elem != nil {
			s.lru.MoveToFront(e.elem)
		}
		s.hits.Inc()
		data := e.data
		s.mu.Unlock()
		return data, SourceLocal, nil
	}
	if c, ok := s.inflight[digest]; ok {
		s.mu.Unlock()
		<-c.done
		if c.err != nil {
			return nil, "", c.err
		}
		// The leader paid for the wire fetch; this caller got the bytes
		// for free, which is exactly what the cache-hit counter means.
		s.hits.Inc()
		s.bytesSaved.Add(int64(len(c.data)))
		return c.data, SourceLocal, nil
	}
	s.misses.Inc()
	c := &call{done: make(chan struct{})}
	s.inflight[digest] = c
	s.mu.Unlock()

	c.data, c.class, c.err = s.fetchLadder(digest, sources, fetch)
	if c.err == nil {
		s.fetchedBytes.Add(int64(len(c.data)))
		switch c.class {
		case SourceRing:
			s.fetchRing.Inc()
			s.bytesSaved.Add(int64(len(c.data)))
		case SourcePeer:
			s.fetchPeer.Inc()
			s.bytesSaved.Add(int64(len(c.data)))
		default:
			s.fetchController.Inc()
		}
	}

	s.mu.Lock()
	delete(s.inflight, digest)
	if c.err == nil {
		s.putLocked(digest, c.data, false)
	}
	s.mu.Unlock()
	close(c.done)
	return c.data, c.class, c.err
}

// FetchThrough resolves a digest from the sources as Fetch does,
// verifying the bytes against it, but neither consults nor fills the
// cache: for a caller that decodes the bytes and keeps only the result,
// so the store would hold a second copy of what the caller holds. Such
// a fetch is not a rung of the input ladder, so only a digest mismatch
// is counted.
func (s *Store) FetchThrough(digest string, sources []Source, fetch FetchFunc) ([]byte, error) {
	data, _, err := s.fetchLadder(digest, sources, fetch)
	return data, err
}

func (s *Store) fetchLadder(digest string, sources []Source, fetch FetchFunc) ([]byte, string, error) {
	if fetch == nil {
		return nil, "", fmt.Errorf("chunkstore: %s: no fetch function: %w", short(digest), ErrNotFound)
	}
	var lastErr error
	for _, src := range sources {
		data, err := fetch(src.Addr, digest)
		if err != nil {
			s.logf("chunkstore: fetch %s from %s (%s): %v", short(digest), src.Addr, src.Class, err)
			lastErr = err
			continue
		}
		if Digest(data) != digest {
			// Content addressing makes tampering self-evident: the
			// bytes do not hash to their own name. Penalise via the
			// counter and keep climbing the ladder.
			s.digestMismatch.Inc()
			s.logf("chunkstore: fetch %s from %s (%s): digest mismatch", short(digest), src.Addr, src.Class)
			lastErr = fmt.Errorf("chunkstore: %s from %s: digest mismatch", short(digest), src.Addr)
			continue
		}
		return data, src.Class, nil
	}
	if lastErr != nil {
		return nil, "", fmt.Errorf("chunkstore: %s unresolvable after %d sources: %w (last: %v)",
			short(digest), len(sources), ErrNotFound, lastErr)
	}
	return nil, "", fmt.Errorf("chunkstore: %s: no sources offered: %w", short(digest), ErrNotFound)
}

func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}

// Stats is a point-in-time snapshot of one store's counters, in the
// shape the webstatus page renders.
type Stats struct {
	Hits, Misses    int64
	FetchRing       int64
	FetchPeer       int64
	FetchController int64
	FetchedBytes    int64 // payload bytes those three fetches brought in
	BytesSaved      int64
	Evictions       int64
	DigestMismatch  int64
	CacheBytes      int64 // as Store.Bytes: payload + entryOverhead per unpinned entry
	Entries         int
}

// Snapshot reads every counter at once.
func (s *Store) Snapshot() Stats {
	s.mu.Lock()
	bytes, entries := s.bytes, len(s.entries)
	s.mu.Unlock()
	return Stats{
		Hits:            s.hits.Value(),
		Misses:          s.misses.Value(),
		FetchRing:       s.fetchRing.Value(),
		FetchPeer:       s.fetchPeer.Value(),
		FetchController: s.fetchController.Value(),
		FetchedBytes:    s.fetchedBytes.Load(),
		BytesSaved:      s.bytesSaved.Value(),
		Evictions:       s.evictions.Value(),
		DigestMismatch:  s.digestMismatch.Value(),
		CacheBytes:      bytes,
		Entries:         entries,
	}
}
