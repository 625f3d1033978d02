package overlay

import (
	"runtime"
	"testing"
	"time"

	"consumergrid/internal/advert"
)

func ad(id, name string, expires time.Time) *advert.Advertisement {
	a := &advert.Advertisement{
		Kind: advert.KindService, ID: id, PeerID: "p1", Name: name,
		Addr: "addr:" + id, Expires: expires,
	}
	return a
}

func TestStoreVersionOrdering(t *testing.T) {
	s := newStore(nil)
	if !s.put(Entry{Ad: ad("x", "triana", time.Time{}), Version: 2}) {
		t.Fatal("fresh put rejected")
	}
	if s.put(Entry{Ad: ad("x", "triana", time.Time{}), Version: 2}) {
		t.Fatal("equal version must be an idempotent no-op")
	}
	if s.put(Entry{Ad: ad("x", "triana", time.Time{}), Version: 1}) {
		t.Fatal("stale version accepted")
	}
	if !s.put(Entry{ID: "x", Version: 3, Tombstone: true}) {
		t.Fatal("newer tombstone rejected")
	}
	// A stale live copy arriving after the tombstone (anti-entropy from
	// a lagging replica) must lose.
	if s.put(Entry{Ad: ad("x", "triana", time.Time{}), Version: 2}) {
		t.Fatal("stale advert resurrected a tombstoned entry")
	}
	if got := s.find(advert.Query{Kind: advert.KindService}, 0); len(got) != 0 {
		t.Fatalf("tombstoned advert still findable: %v", got)
	}
}

func TestStoreSweepExpired(t *testing.T) {
	now := time.Unix(1000, 0)
	s := newStore(func() time.Time { return now })
	s.put(Entry{Ad: ad("live", "triana", now.Add(time.Hour)), Version: 1})
	s.put(Entry{Ad: ad("dying", "triana", now.Add(time.Second)), Version: 4})

	if swept := s.sweepExpired(); len(swept) != 0 {
		t.Fatalf("nothing expired yet, swept %v", swept)
	}
	now = now.Add(2 * time.Second)
	swept := s.sweepExpired()
	if len(swept) != 1 || swept[0].ID != "dying" || !swept[0].Tombstone || swept[0].Version != 5 {
		t.Fatalf("sweep = %+v, want one v5 tombstone for 'dying'", swept)
	}
	if swept[0].Ad == nil {
		t.Fatal("sweep tombstone must keep the advert body for topic matching")
	}
	got := s.find(advert.Query{Kind: advert.KindService}, 0)
	if len(got) != 1 || got[0].ID != "live" {
		t.Fatalf("find after sweep = %v, want only 'live'", got)
	}
	live, tombs := s.counts()
	if live != 1 || tombs != 1 {
		t.Fatalf("counts = (%d, %d), want (1, 1)", live, tombs)
	}
}

func TestStoreDigestDetectsDifference(t *testing.T) {
	a, b := newStore(nil), newStore(nil)
	for _, id := range []string{"one", "two", "three"} {
		e := Entry{Ad: ad(id, "triana", time.Time{}), Version: 1}
		a.put(e)
		b.put(e)
	}
	da, db := a.digest(), b.digest()
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("identical stores differ at shard %d", i)
		}
	}
	b.put(Entry{Ad: ad("four", "triana", time.Time{}), Version: 1})
	da, db = a.digest(), b.digest()
	diff := 0
	for i := range da {
		if da[i] != db[i] {
			diff++
			if i != ShardOf("four") {
				t.Fatalf("unexpected shard %d differs", i)
			}
		}
	}
	if diff != 1 {
		t.Fatalf("%d shards differ, want exactly 1", diff)
	}
	// Version bumps change the digest too (same ID, same shard).
	a.put(Entry{Ad: ad("one", "triana", time.Time{}), Version: 2})
	da, db = a.digest(), b.digest()
	if da[ShardOf("one")] == db[ShardOf("one")] {
		t.Fatal("version bump invisible to digest")
	}
}

func TestEntryCodecRoundTrip(t *testing.T) {
	s := newStore(nil)
	s.put(Entry{Ad: ad("a1", "triana", time.Time{}), ID: "a1", Version: 7})
	s.put(Entry{ID: "gone", Version: 9, Tombstone: true})
	out, err := decodeEntries(encodeEntries(s.all()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("decoded %d entries, want 2", len(out))
	}
	if out[0].ID != "a1" || out[0].Version != 7 || out[0].Tombstone || out[0].Ad == nil || out[0].Ad.Name != "triana" {
		t.Fatalf("entry 0 mangled: %+v", out[0])
	}
	if out[1].ID != "gone" || out[1].Version != 9 || !out[1].Tombstone || out[1].Ad != nil {
		t.Fatalf("entry 1 mangled: %+v", out[1])
	}
}

func TestDigestCodecRoundTrip(t *testing.T) {
	in := []ShardDigest{{Count: 3, Hash: 0xdeadbeef}, {}, {Count: 1, Hash: 42}}
	out, err := decodeDigests(encodeDigests(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d digests, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("digest %d mangled: %+v vs %+v", i, in[i], out[i])
		}
	}
}

func TestDecodeEntriesRejectsGarbage(t *testing.T) {
	if _, err := decodeEntries([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}); err == nil {
		t.Fatal("absurd count accepted")
	}
	if _, err := decodeEntries([]byte{1, 1}); err == nil {
		t.Fatal("truncated entry accepted")
	}
}

func TestParseShardList(t *testing.T) {
	want, err := parseShardList("0,5,31")
	if err != nil || len(want) != 3 || !want[0] || !want[5] || !want[31] {
		t.Fatalf("parseShardList = %v, %v", want, err)
	}
	if _, err := parseShardList("40"); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	if _, err := parseShardList("x"); err == nil {
		t.Fatal("non-numeric shard accepted")
	}
}

// allocatedBy reports the bytes the process allocated while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeHostileCounts: sync replies and checkpoint sections are
// untrusted, so a count the bytes cannot back must fail without
// reserving room for it.
func TestDecodeHostileCounts(t *testing.T) {
	for name, decode := range map[string]func([]byte) error{
		"entries": func(b []byte) error { _, err := decodeEntries(b); return err },
		"digests": func(b []byte) error { _, err := decodeDigests(b); return err },
	} {
		for _, frame := range [][]byte{
			{0x80, 0x80, 0x40}, // claims 2^20
			{0x80, 0x80, 0x04}, // claims 2^16
		} {
			var err error
			if n := allocatedBy(func() { err = decode(frame) }); n >= 1<<20 {
				t.Errorf("%s: %d-byte frame %x allocated %d bytes", name, len(frame), frame, n)
			}
			if err == nil {
				t.Errorf("%s: frame %x with a count it cannot back decoded", name, frame)
			}
		}
	}
}
