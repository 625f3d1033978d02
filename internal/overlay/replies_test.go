package overlay

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"consumergrid/internal/advert"
	"consumergrid/internal/jxtaserve"
)

// fakeClock is an injectable super-peer clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Set(t time.Time) {
	c.mu.Lock()
	c.now = t
	c.mu.Unlock()
}

// queryReq builds the overlay.query request a client sends.
func queryReq(t testing.TB, q advert.Query, limit int) *jxtaserve.Message {
	t.Helper()
	payload, err := q.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	req := &jxtaserve.Message{Payload: payload}
	req.SetHeader("limit", strconv.Itoa(limit))
	return req
}

// ask runs one query through the super's handler and returns the reply
// bytes and whether the stored set answered it.
func ask(t testing.TB, sp *SuperPeer, q advert.Query, limit int) (reply []byte, hit bool) {
	t.Helper()
	before := sp.metrics.replyHits.Value()
	r, err := sp.handleQuery(queryReq(t, q, limit))
	if err != nil {
		t.Fatal(err)
	}
	switch d := sp.metrics.replyHits.Value() - before; d {
	case 0, 1:
		return r.Payload, d == 1
	default:
		t.Fatalf("one query counted %d stored-reply hits", d)
	}
	return nil, false
}

// TestSuperAnswersRepeatQueriesFromStoredReplies: a super answers a
// repeated query with the reply it stored, byte for byte, and never
// with one a write, an expiry or a different question has made stale.
func TestSuperAnswersRepeatQueriesFromStoredReplies(t *testing.T) {
	t0 := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	// setup publishes svc-a (expiring at t0+1h) and svc-b (never) and
	// asks trianaQuery once, so its reply is stored.
	setup := func(t *testing.T) (*SuperPeer, *Client, *fakeClock, []*advert.Advertisement) {
		clock := &fakeClock{now: t0}
		c := newCluster(t, 1, 1, clock.Now)
		pub := c.client("pub", 1)
		ads := []*advert.Advertisement{serviceAd("svc-a", "triana", t0.Add(time.Hour)), serviceAd("svc-b", "triana", time.Time{})}
		for _, a := range ads {
			if err := pub.Publish(a); err != nil {
				t.Fatal(err)
			}
		}
		sp := c.supers[0]
		if got, hit := ask(t, sp, trianaQuery, 0); hit || !bytes.Equal(got, listBytes(t, ads)) {
			t.Fatalf("first query: hit %v, reply %q", hit, got)
		}
		return sp, pub, clock, ads
	}
	// expect asks trianaQuery and checks the reply is a fresh encoding
	// of want.
	expect := func(t *testing.T, sp *SuperPeer, want []*advert.Advertisement) {
		t.Helper()
		got, hit := ask(t, sp, trianaQuery, 0)
		if hit {
			t.Fatal("a stale stored reply answered")
		}
		if !bytes.Equal(got, listBytes(t, want)) {
			t.Fatalf("reply %q\nwant %q", got, listBytes(t, want))
		}
	}

	t.Run("repeat is served from the stored set", func(t *testing.T) {
		sp, _, _, ads := setup(t)
		first, _ := ask(t, sp, trianaQuery, 0)
		again, hit := ask(t, sp, trianaQuery, 0)
		if !hit || !bytes.Equal(again, first) || !bytes.Equal(again, listBytes(t, ads)) {
			t.Fatalf("repeat: hit %v, reply %q, want %q", hit, again, first)
		}
	})
	t.Run("a matching publish appears", func(t *testing.T) {
		sp, pub, _, ads := setup(t)
		c := serviceAd("svc-c", "triana", time.Time{})
		if err := pub.Publish(c); err != nil {
			t.Fatal(err)
		}
		expect(t, sp, append(ads, c))
	})
	t.Run("a retract disappears", func(t *testing.T) {
		sp, pub, _, ads := setup(t)
		if err := pub.Retract("svc-b"); err != nil {
			t.Fatal(err)
		}
		expect(t, sp, ads[:1])
	})
	t.Run("an expiry without a sweep disappears", func(t *testing.T) {
		sp, _, clock, ads := setup(t)
		clock.Set(t0.Add(time.Hour))
		if _, hit := ask(t, sp, trianaQuery, 0); !hit {
			t.Fatal("svc-a has not expired yet, but the stored reply was not used")
		}
		clock.Set(t0.Add(time.Hour + time.Nanosecond))
		expect(t, sp, ads[1:])
	})
	t.Run("a swept advert stays gone when the clock steps back", func(t *testing.T) {
		sp, _, clock, ads := setup(t)
		clock.Set(t0.Add(2 * time.Hour))
		if n := sp.SweepOnce(); n != 1 {
			t.Fatalf("swept %d adverts, want 1", n)
		}
		// The wall clock steps back under the advert's expiry: the
		// tombstone, not the clock, now decides.
		clock.Set(t0.Add(time.Minute))
		expect(t, sp, ads[1:])
	})
	t.Run("limits 0 and 1 do not share a reply", func(t *testing.T) {
		sp, _, _, ads := setup(t)
		if got, hit := ask(t, sp, trianaQuery, 1); hit || !bytes.Equal(got, listBytes(t, ads[:1])) {
			t.Fatalf("limit 1: hit %v, reply %q", hit, got)
		}
		if got, hit := ask(t, sp, trianaQuery, 1); !hit || !bytes.Equal(got, listBytes(t, ads[:1])) {
			t.Fatalf("limit 1 again: hit %v, reply %q", hit, got)
		}
		if got, hit := ask(t, sp, trianaQuery, 0); !hit || !bytes.Equal(got, listBytes(t, ads)) {
			t.Fatalf("limit 0: hit %v, reply %q", hit, got)
		}
	})
	t.Run("different queries do not share a reply", func(t *testing.T) {
		sp, _, _, ads := setup(t)
		byPeer := advert.Query{Kind: advert.KindService, Name: "triana", PeerID: "someone-else"}
		if got, hit := ask(t, sp, byPeer, 0); hit || !bytes.Equal(got, listBytes(t, nil)) {
			t.Fatalf("other query: hit %v, reply %q", hit, got)
		}
		if got, hit := ask(t, sp, trianaQuery, 0); !hit || !bytes.Equal(got, listBytes(t, ads)) {
			t.Fatalf("first query again: hit %v, reply %q", hit, got)
		}
	})
}

// TestReplyFromOvertakenFindIsNotStored: a miss encodes its reply
// outside the store's lock, so a write can land between its find and
// its store; that reply would answer with the state before the write,
// and is dropped.
func TestReplyFromOvertakenFindIsNotStored(t *testing.T) {
	s := newStore(nil)
	s.put(Entry{Ad: ad("a", "triana", time.Time{}), Version: 1})
	query := []byte("<query></query>")
	matches, gen := s.findAt(advert.Query{}, 0)
	s.put(Entry{Ad: ad("b", "triana", time.Time{}), Version: 1})
	s.keepReply(query, 0, gen, matches, []byte("the reply before b"))
	if got, ok := s.reply(query, 0); ok {
		t.Fatalf("the overtaken reply %q was stored", got)
	}
	matches, gen = s.findAt(advert.Query{}, 0)
	s.keepReply(query, 0, gen, matches, []byte("the reply with b"))
	if got, ok := s.reply(query, 0); !ok || string(got) != "the reply with b" {
		t.Fatalf("stored reply = %q, %v; want the current one", got, ok)
	}
}

// TestStoredRepliesStayBounded: the stored set never holds more than
// maxReplies replies or maxReplyBytes bytes, and a reply over the byte
// bound is served but never stored.
func TestStoredRepliesStayBounded(t *testing.T) {
	c := newCluster(t, 1, 1, nil)
	sp := c.supers[0]
	// Each advert is ~4.5 KiB; 300 of them reply more than 1 MiB.
	for i, a := range paddedAds(300, 4<<10) {
		if !sp.store.put(Entry{Ad: a, Version: 1}) {
			t.Fatalf("advert %d rejected", i)
		}
	}
	check := func() {
		t.Helper()
		sp.store.mu.Lock()
		defer sp.store.mu.Unlock()
		n, size := len(sp.store.replies), 0
		for _, r := range sp.store.replies {
			size += len(r.payload)
		}
		if n > maxReplies || size > maxReplyBytes || size != sp.store.replyBytes {
			t.Fatalf("stored %d replies of %d bytes (counted %d), bounds %d and %d", n, size, sp.store.replyBytes, maxReplies, maxReplyBytes)
		}
	}
	for i := 0; i < 2; i++ {
		if got, hit := ask(t, sp, trianaQuery, 0); hit || len(got) <= maxReplyBytes {
			t.Fatalf("oversized reply: hit %v, %d bytes", hit, len(got))
		}
	}
	check()
	// Distinct queries of growing replies: by limit, 1..250 adverts.
	for limit := 1; limit <= 250; limit += 3 {
		ask(t, sp, trianaQuery, limit)
		check()
	}
	for i := 0; i < 2*maxReplies; i++ {
		ask(t, sp, advert.Query{Kind: advert.KindService, Name: fmt.Sprintf("none-%d", i)}, 0)
		check()
	}
}

// TestWarmQueryAllocBudget: a repeated query costs the super the same
// few allocations however many adverts it returns.
func TestWarmQueryAllocBudget(t *testing.T) {
	const budget = 2 // allocations per warm query, whatever its size
	var per []float64
	for _, n := range []int{24, 96} {
		c := newCluster(t, 1, 1, nil)
		pub := c.client("pub", 1)
		for i := 0; i < n; i++ {
			if err := pub.Publish(serviceAd(fmt.Sprintf("svc-%03d", i), "triana", time.Now().Add(time.Hour))); err != nil {
				t.Fatal(err)
			}
		}
		sp := c.supers[0]
		req := queryReq(t, trianaQuery, 0)
		query := func() {
			if _, err := sp.handleQuery(req); err != nil {
				t.Fatal(err)
			}
		}
		query() // stores the reply
		allocs := testing.AllocsPerRun(100, query)
		t.Logf("%d adverts: %.1f allocations per warm query", n, allocs)
		per = append(per, allocs)
	}
	if per[0] != per[1] || per[1] > budget {
		t.Fatalf("warm query allocates %.1f at 24 adverts and %.1f at 96; want the same, at most %d", per[0], per[1], budget)
	}
}

// TestStoredRepliesUnderConcurrentWrites: queries race publishes on one
// super. Writes only add adverts here, so each querier must see the
// count never fall, which a reply stored from a find that a write
// overtook would break; once the writes stop, the answer is the whole
// set, and it is then stored. Run it under -race -count=10.
func TestStoredRepliesUnderConcurrentWrites(t *testing.T) {
	c := newCluster(t, 1, 1, nil)
	sp := c.supers[0]
	pub := c.client("pub", 1)
	const adverts, queriers = 40, 3
	var ads []*advert.Advertisement
	for i := 0; i < adverts; i++ {
		ads = append(ads, serviceAd(fmt.Sprintf("svc-%02d", i), "triana", time.Time{}))
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := queryReq(t, trianaQuery, 0)
			seen := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				reply, err := sp.handleQuery(req)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := advert.DecodeList(reply.Payload)
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) < seen {
					t.Errorf("a reply lists %d adverts after one listed %d", len(got), seen)
					return
				}
				seen = len(got)
			}
		}()
	}
	for _, a := range ads {
		if err := pub.Publish(a); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	// The first query may already find the full reply stored by a
	// querier; the second must.
	for i := 0; i < 2; i++ {
		got, hit := ask(t, sp, trianaQuery, 0)
		if !bytes.Equal(got, listBytes(t, ads)) {
			t.Fatalf("query %d after the writes: %q\nwant %q", i, got, listBytes(t, ads))
		}
		if i == 1 && !hit {
			t.Fatal("the full reply was not stored")
		}
	}
}
