package chunkstore

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"consumergrid/internal/metrics"
	"consumergrid/internal/types"
)

func newTestStore(t *testing.T, maxBytes int64) *Store {
	t.Helper()
	return New(Options{
		MaxBytes: maxBytes,
		Owner:    t.Name(),
		Registry: metrics.NewRegistry(),
		Logf:     t.Logf,
	})
}

func chunkOf(n int, fill byte) (string, []byte) {
	data := make([]byte, n)
	for i := range data {
		data[i] = fill
	}
	return Digest(data), data
}

func TestDigestDataMatchesMarshal(t *testing.T) {
	d := &types.Spectrum{Resolution: 2, Amplitudes: []float64{1, 2, 3}}
	digest, payload, err := DigestData(d)
	if err != nil {
		t.Fatal(err)
	}
	want, err := types.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != string(want) {
		t.Fatalf("payload differs from types.Marshal")
	}
	if digest != Digest(want) {
		t.Fatalf("digest %s != Digest(Marshal(d)) %s", digest, Digest(want))
	}
	back, err := types.Unmarshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := back.(*types.Spectrum); !ok {
		t.Fatalf("round trip produced %T", back)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	budget := 3 * charge(100)
	s := newTestStore(t, budget)
	var digests []string
	for i := 0; i < 4; i++ {
		dg, data := chunkOf(100, byte(i))
		digests = append(digests, dg)
		s.Put(dg, data)
	}
	// Budget holds 3 of the 4; the first inserted is the LRU victim.
	if _, ok := s.Get(digests[0]); ok {
		t.Fatalf("oldest chunk survived eviction")
	}
	for _, dg := range digests[1:] {
		if _, ok := s.Get(dg); !ok {
			t.Fatalf("recent chunk %s evicted", short(dg))
		}
	}
	if got := s.Snapshot().Evictions; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	// Touching the now-oldest survivor promotes it past the next victim.
	s.Get(digests[1])
	dg, data := chunkOf(100, 0xFF)
	s.Put(dg, data)
	if _, ok := s.Get(digests[1]); !ok {
		t.Fatalf("touched chunk was evicted despite recency")
	}
	if _, ok := s.Get(digests[2]); ok {
		t.Fatalf("untouched chunk survived over the touched one")
	}
	if s.Bytes() > budget {
		t.Fatalf("cache holds %d bytes over the %d budget", s.Bytes(), budget)
	}
}

// TestStoreChargesEntryOverhead: on tiny chunks the per-entry overhead
// outweighs the payload, so the budget must count it or it bounds
// several times its size in real heap.
func TestStoreChargesEntryOverhead(t *testing.T) {
	const budget, payload = 1 << 20, 16
	s := newTestStore(t, budget)
	for i := 0; i < 100000; i++ {
		data := []byte(fmt.Sprintf("%016d", i))
		s.Put(Digest(data), data)
	}
	if max := budget / (payload + entryOverhead); s.Len() > max {
		t.Fatalf("%d entries resident, budget holds at most %d", s.Len(), max)
	}
	if s.Bytes() > budget {
		t.Fatalf("cache charges %d bytes over the %d budget", s.Bytes(), budget)
	}
	if got, want := s.Bytes(), int64(s.Len())*charge(payload); got != want {
		t.Fatalf("Bytes() = %d, want %d entries x %d", got, s.Len(), charge(payload))
	}
}

func TestStorePinExemptFromEviction(t *testing.T) {
	budget := charge(100)
	s := newTestStore(t, budget)
	pinDg, pinData := chunkOf(500, 1) // over the whole budget
	s.Pin(pinDg, pinData)
	for i := 0; i < 5; i++ {
		dg, data := chunkOf(60, byte(10+i))
		s.Put(dg, data)
	}
	if _, ok := s.Get(pinDg); !ok {
		t.Fatalf("pinned chunk was evicted")
	}
	if s.Bytes() > budget {
		t.Fatalf("unpinned bytes %d over budget", s.Bytes())
	}
	s.Unpin(pinDg)
	if _, ok := s.Get(pinDg); ok {
		t.Fatalf("unpinned chunk is still resident")
	}
}

// TestStoreUnpinDropsLastPin: pins nest, and the entry leaves the store
// when its last pin drops — it does not rejoin the LRU, whatever was
// cached before the first pin.
func TestStoreUnpinDropsLastPin(t *testing.T) {
	s := newTestStore(t, 1<<20)
	dg, data := chunkOf(100, 7)
	s.Put(dg, data)
	s.Pin(dg, data)
	s.Pin(dg, data)
	s.Unpin(dg)
	if _, pinned, ok := s.Lookup(dg); !ok || !pinned {
		t.Fatalf("after one of two unpins: ok=%v pinned=%v, want a pinned entry", ok, pinned)
	}
	s.Unpin(dg)
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Fatalf("after the last unpin the store holds %d entries, %d bytes", s.Len(), s.Bytes())
	}
	s.Unpin(dg) // unpinning an absent digest is a no-op
	if snap := s.Snapshot(); snap.Evictions != 0 {
		t.Fatalf("dropping a released pin counted %d evictions", snap.Evictions)
	}
}

func TestFetchLadderVerifiesAndFallsBack(t *testing.T) {
	s := newTestStore(t, 1<<20)
	dg, data := chunkOf(64, 7)
	calls := []string{}
	fetch := func(addr, digest string) ([]byte, error) {
		calls = append(calls, addr)
		switch addr {
		case "ring-dead":
			return nil, errors.New("dial refused")
		case "peer-lies":
			return []byte("not the chunk"), nil
		case "controller":
			return data, nil
		}
		return nil, errors.New("unknown source")
	}
	sources := []Source{
		{Addr: "ring-dead", Class: SourceRing},
		{Addr: "peer-lies", Class: SourcePeer},
		{Addr: "controller", Class: SourceController},
	}
	got, class, err := s.Fetch(dg, sources, fetch)
	if err != nil {
		t.Fatal(err)
	}
	if class != SourceController {
		t.Fatalf("resolved via %s, want controller", class)
	}
	if string(got) != string(data) {
		t.Fatalf("wrong bytes")
	}
	if len(calls) != 3 {
		t.Fatalf("ladder tried %v, want all three rungs", calls)
	}
	snap := s.Snapshot()
	if snap.DigestMismatch != 1 {
		t.Fatalf("digest mismatches = %d, want 1 (the lying peer)", snap.DigestMismatch)
	}
	if snap.FetchController != 1 || snap.FetchRing != 0 || snap.FetchPeer != 0 {
		t.Fatalf("fetch sources = %+v", snap)
	}

	// Second fetch is a pure cache hit: no wire calls.
	calls = nil
	_, class, err = s.Fetch(dg, sources, fetch)
	if err != nil || class != SourceLocal {
		t.Fatalf("second fetch: class=%s err=%v", class, err)
	}
	if len(calls) != 0 {
		t.Fatalf("cache hit still dialled %v", calls)
	}
	if got := s.Snapshot().Hits; got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}
}

func TestFetchAllSourcesFailing(t *testing.T) {
	s := newTestStore(t, 1<<20)
	dg, _ := chunkOf(16, 9)
	fetch := func(addr, digest string) ([]byte, error) { return nil, errors.New("down") }
	_, _, err := s.Fetch(dg, []Source{{Addr: "a", Class: SourceRing}}, fetch)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if _, _, err := s.Fetch(dg, nil, fetch); !errors.Is(err, ErrNotFound) {
		t.Fatalf("no sources: err = %v, want ErrNotFound", err)
	}
}

func TestFetchSingleflightCoalesces(t *testing.T) {
	s := newTestStore(t, 1<<20)
	dg, data := chunkOf(128, 3)
	var fetches int
	gate := make(chan struct{})
	fetch := func(addr, digest string) ([]byte, error) {
		fetches++ // only the leader runs this; no extra locking needed
		<-gate
		return data, nil
	}
	sources := []Source{{Addr: "controller", Class: SourceController}}

	const waiters = 8
	var wg sync.WaitGroup
	results := make([][]byte, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, _, err := s.Fetch(dg, sources, fetch)
			if err != nil {
				t.Error(err)
			}
			results[i] = got
		}(i)
	}
	// Let every goroutine reach the store before releasing the leader.
	for s.Snapshot().Misses == 0 {
	}
	close(gate)
	wg.Wait()

	if fetches != 1 {
		t.Fatalf("wire fetches = %d, want 1 (singleflight)", fetches)
	}
	for i, got := range results {
		if string(got) != string(data) {
			t.Fatalf("waiter %d got wrong bytes", i)
		}
	}
	snap := s.Snapshot()
	if snap.Misses != 1 {
		t.Fatalf("misses = %d, want 1", snap.Misses)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := &Manifest{
		Origin: "127.0.0.1:7000",
		Items: []Item{
			{Digest: Digest([]byte("a")), Ring: []string{"127.0.0.1:7200", "127.0.0.1:7201"}, Peers: []string{"127.0.0.1:7301"}},
			{Data: []byte("tiny datum")},
			{Digest: Digest([]byte("b"))},
			{Data: bytes.Repeat([]byte{0xAB}, MaxInline)},
			{Digest: Digest([]byte("c")), Peers: []string{"127.0.0.1:7302", "127.0.0.1:7303"}},
			{Data: []byte{0}},
		},
	}
	back, err := DecodeManifest(EncodeManifest(m))
	if err != nil {
		t.Fatal(err)
	}
	if back.Origin != m.Origin || len(back.Items) != len(m.Items) {
		t.Fatalf("decoded %+v", back)
	}
	for i, it := range back.Items {
		want := m.Items[i]
		if it.Digest != want.Digest || fmt.Sprint(it.Ring) != fmt.Sprint(want.Ring) ||
			fmt.Sprint(it.Peers) != fmt.Sprint(want.Peers) || !bytes.Equal(it.Data, want.Data) {
			t.Fatalf("item %d: got %+v want %+v", i, it, want)
		}
	}
	srcs := back.Sources(back.Items[0])
	wantClasses := []string{SourceRing, SourceRing, SourcePeer, SourceController}
	if len(srcs) != len(wantClasses) {
		t.Fatalf("sources = %+v", srcs)
	}
	for i, src := range srcs {
		if src.Class != wantClasses[i] {
			t.Fatalf("source %d class %s, want %s", i, src.Class, wantClasses[i])
		}
	}
}

func TestManifestEmptyRoundTrip(t *testing.T) {
	back, err := DecodeManifest(EncodeManifest(&Manifest{}))
	if err != nil {
		t.Fatal(err)
	}
	if back.Origin != "" || len(back.Items) != 0 {
		t.Fatalf("decoded %+v", back)
	}
	if srcs := back.Sources(Item{}); len(srcs) != 0 {
		t.Fatalf("empty manifest offered sources %+v", srcs)
	}
}

func TestDecodeManifestRejects(t *testing.T) {
	good := EncodeManifest(&Manifest{Origin: "o", Items: []Item{{Digest: Digest([]byte("x"))}}})
	cases := map[string][]byte{
		"empty":            {},
		"bad version":      {99},
		"truncated origin": good[:2],
		"truncated item":   good[:len(good)-3],
		"trailing bytes":   append(append([]byte{}, good...), 0xAA),
		"empty digest":     {manifestVersion, 0, 1, 0, 0, 0},
		"empty by-value":   {manifestVersion, 0, 1, 0, 0},
		"oversized by-value": EncodeManifest(&Manifest{Items: []Item{
			{Data: bytes.Repeat([]byte{1}, MaxInline+1)},
		}}),
	}
	for name, p := range cases {
		if _, err := DecodeManifest(p); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestRestorePinnedLoadsUnpinned: a checkpointed pin set comes back as
// ordinary cache entries — servable, but pinned by no one, so it is not
// exported again and counts against the budget.
func TestRestorePinnedLoadsUnpinned(t *testing.T) {
	src := newTestStore(t, 1<<20)
	dg, data := chunkOf(100, 9)
	src.Pin(dg, data)
	dst := newTestStore(t, 1<<20)
	if n, err := dst.RestorePinned(src.ExportPinned()); err != nil || n != 1 {
		t.Fatalf("RestorePinned = %d, %v; want 1 chunk", n, err)
	}
	if got, pinned, ok := dst.Lookup(dg); !ok || pinned || !bytes.Equal(got, data) {
		t.Fatalf("restored chunk: ok=%v pinned=%v", ok, pinned)
	}
	if dst.Bytes() != charge(len(data)) {
		t.Fatalf("restored chunk charges %d bytes, want %d", dst.Bytes(), charge(len(data)))
	}
	if b := dst.ExportPinned(); !bytes.Equal(b, []byte{0}) {
		t.Fatalf("restored store re-exports pins %x, want none", b)
	}
}

// TestStoreHoldIsChargedButNeverEvicted: a held chunk counts against the
// budget, so caching around it evicts the other entries, never the held
// one — even a held chunk larger than the whole budget. When its last
// hold drops it rejoins the LRU and the budget applies to it again.
func TestStoreHoldIsChargedButNeverEvicted(t *testing.T) {
	budget := charge(100)
	s := newTestStore(t, budget)
	heldDg, heldData := chunkOf(500, 1)
	s.Hold(heldDg, heldData)
	s.Hold(heldDg, heldData)
	if got := s.Bytes(); got != charge(500) {
		t.Fatalf("held chunk charges %d bytes, want %d", got, charge(500))
	}
	for i := 0; i < 5; i++ {
		dg, data := chunkOf(60, byte(10+i))
		s.Put(dg, data)
	}
	if data, pinned, ok := s.Lookup(heldDg); !ok || pinned || len(data) != 500 {
		t.Fatalf("held chunk: ok=%v pinned=%v len=%d, want it resident and unpinned", ok, pinned, len(data))
	}
	if s.Len() != 1 {
		t.Fatalf("store kept %d entries beside an over-budget hold, want only the held one", s.Len())
	}
	s.Release(heldDg)
	if _, ok := s.Get(heldDg); !ok {
		t.Fatal("the chunk left the store while one hold remained")
	}
	s.Release(heldDg)
	if _, ok := s.Get(heldDg); ok || s.Bytes() != 0 {
		t.Fatalf("released over-budget chunk: resident=%v bytes=%d, want it evicted", ok, s.Bytes())
	}
	s.Release(heldDg) // releasing an absent digest is a no-op

	// A pinned and held chunk is charged only once its pins drop, and
	// survives them while held.
	dg, data := chunkOf(50, 2)
	s.Pin(dg, data)
	s.Hold(dg, data)
	if s.Bytes() != 0 {
		t.Fatalf("pinned, held chunk charges %d bytes, want 0", s.Bytes())
	}
	s.Unpin(dg)
	if _, ok := s.Get(dg); !ok || s.Bytes() != charge(50) {
		t.Fatalf("after the unpin: resident=%v bytes=%d, want a held entry charging %d", ok, s.Bytes(), charge(50))
	}
	s.Release(dg)
	if _, ok := s.Get(dg); !ok {
		t.Fatal("a released chunk within budget left the cache")
	}
}
