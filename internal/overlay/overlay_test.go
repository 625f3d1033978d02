package overlay

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"consumergrid/internal/advert"
	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/simnet"
)

// cluster is a simnet ring of super-peers plus helpers for clients.
type cluster struct {
	t      *testing.T
	net    *simnet.Network
	ring   *Ring
	r      int // the supers' replication factor
	supers []*SuperPeer
	hosts  []*jxtaserve.Host
}

// newCluster builds n super-peers with replication r on a fresh simnet.
// Background loops are disabled: tests drive SweepOnce/SyncWith by hand
// for determinism.
func newCluster(t *testing.T, n, r int, now func() time.Time) *cluster {
	t.Helper()
	c := &cluster{t: t, net: simnet.New(), ring: NewRing(0), r: r}
	for i := 0; i < n; i++ {
		label := fmt.Sprintf("super-%d", i)
		h, err := jxtaserve.NewHost(label, c.net.Peer(label), "")
		if err != nil {
			t.Fatal(err)
		}
		c.hosts = append(c.hosts, h)
		c.ring.Add(h.Addr())
	}
	for _, h := range c.hosts {
		sp, err := NewSuper(h, SuperOptions{
			Ring: c.ring, Replication: r, SweepInterval: -1, Now: now,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.supers = append(c.supers, sp)
	}
	t.Cleanup(func() {
		for _, sp := range c.supers {
			sp.Close()
		}
		for _, h := range c.hosts {
			h.Close()
		}
	})
	return c
}

// client attaches an overlay client on its own simnet peer.
func (c *cluster) client(label string, r int) *Client {
	c.t.Helper()
	h, err := jxtaserve.NewHost(label, c.net.Peer(label), "")
	if err != nil {
		c.t.Fatal(err)
	}
	cl, err := NewClient(h, ClientOptions{Ring: c.ring, Replication: r})
	if err != nil {
		c.t.Fatal(err)
	}
	c.t.Cleanup(func() {
		cl.Close()
		h.Close()
	})
	return cl
}

func serviceAd(id, name string, expires time.Time) *advert.Advertisement {
	return &advert.Advertisement{
		Kind: advert.KindService, ID: id, PeerID: "pub", Name: name,
		Addr: "addr:" + id, Expires: expires,
	}
}

// waitEvent receives one event or fails the test.
func waitEvent(t *testing.T, ch <-chan Event) Event {
	t.Helper()
	select {
	case ev, ok := <-ch:
		if !ok {
			t.Fatal("event channel closed")
		}
		return ev
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for a push event")
	}
	panic("unreachable")
}

// expectQuiet asserts no event arrives within the grace window — the
// dedup-by-version check that redundant owner pushes do not flap the
// subscriber.
func expectQuiet(t *testing.T, ch <-chan Event) {
	t.Helper()
	select {
	case ev := <-ch:
		t.Fatalf("unexpected extra event: %+v", ev)
	case <-time.After(150 * time.Millisecond):
	}
}

func TestPublishQueryAndPush(t *testing.T) {
	c := newCluster(t, 3, 2, nil)
	pub := c.client("pub", 2)
	subC := c.client("sub", 2)

	q := advert.Query{Kind: advert.KindService, Name: "triana"}
	events, err := subC.Subscribe("donors", q)
	if err != nil {
		t.Fatal(err)
	}

	if err := pub.Publish(serviceAd("svc-1", "triana", time.Time{})); err != nil {
		t.Fatal(err)
	}
	ev := waitEvent(t, events)
	if ev.ID != "svc-1" || ev.Retracted || ev.Ad == nil || ev.Ad.Name != "triana" {
		t.Fatalf("push event = %+v, want update for svc-1", ev)
	}
	// Both owners push the same version; the duplicate must be dropped.
	expectQuiet(t, events)

	got, err := pub.Query(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != "svc-1" {
		t.Fatalf("Query = %v, want [svc-1]", got)
	}

	// A non-matching advert must not reach the subscriber.
	if err := pub.Publish(serviceAd("svc-2", "other", time.Time{})); err != nil {
		t.Fatal(err)
	}
	expectQuiet(t, events)

	// Wildcard queries fan out across supers and merge.
	all, err := pub.Query(advert.Query{Kind: advert.KindService}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("wildcard Query = %v, want both adverts", all)
	}
}

func TestSubscribeSeedsExistingAdverts(t *testing.T) {
	c := newCluster(t, 3, 2, nil)
	pub := c.client("pub", 2)
	if err := pub.Publish(serviceAd("svc-1", "triana", time.Time{})); err != nil {
		t.Fatal(err)
	}
	// Subscribing after the fact still delivers the current matches.
	sub := c.client("sub", 2)
	events, err := sub.Subscribe("late", advert.Query{Kind: advert.KindService, Name: "triana"})
	if err != nil {
		t.Fatal(err)
	}
	if ev := waitEvent(t, events); ev.ID != "svc-1" {
		t.Fatalf("seed event = %+v, want svc-1", ev)
	}
	expectQuiet(t, events)
}

// TestExpiryRetractionAndRenewal is the satellite-3 coverage: an
// expired advert produces exactly one retraction push, and a renewal —
// before or after expiry — produces exactly one update, never a
// retract/update flap, despite every owner pushing redundantly.
func TestExpiryRetractionAndRenewal(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(5000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}

	c := newCluster(t, 2, 2, clock)
	pub := c.client("pub", 2)
	sub := c.client("sub", 2)
	events, err := sub.Subscribe("watch", advert.Query{Kind: advert.KindService, Name: "triana"})
	if err != nil {
		t.Fatal(err)
	}

	if err := pub.Publish(serviceAd("svc-a", "triana", clock().Add(10*time.Second))); err != nil {
		t.Fatal(err)
	}
	if ev := waitEvent(t, events); ev.Retracted || ev.ID != "svc-a" {
		t.Fatalf("want initial update, got %+v", ev)
	}
	expectQuiet(t, events)

	// Renewal before expiry: one update event, no flap.
	if err := pub.Publish(serviceAd("svc-a", "triana", clock().Add(20*time.Second))); err != nil {
		t.Fatal(err)
	}
	if ev := waitEvent(t, events); ev.Retracted || ev.ID != "svc-a" {
		t.Fatalf("want renewal update, got %+v", ev)
	}
	expectQuiet(t, events)

	// Expiry: every super sweeps its own replica; the subscriber must
	// see exactly one retraction.
	advance(30 * time.Second)
	for _, sp := range c.supers {
		sp.SweepOnce()
	}
	ev := waitEvent(t, events)
	if !ev.Retracted || ev.ID != "svc-a" {
		t.Fatalf("want retraction, got %+v", ev)
	}
	expectQuiet(t, events)
	if live, _ := c.supers[0].Entries(); live != 0 {
		t.Fatalf("super still holds %d live adverts after sweep", live)
	}

	// Renewal after expiry: the publisher's version counter is behind
	// the sweep tombstone; the publish must still take effect (outbid
	// and retry) and push exactly one update.
	if err := pub.Publish(serviceAd("svc-a", "triana", clock().Add(time.Minute))); err != nil {
		t.Fatal(err)
	}
	ev = waitEvent(t, events)
	if ev.Retracted || ev.ID != "svc-a" {
		t.Fatalf("want post-expiry renewal update, got %+v", ev)
	}
	expectQuiet(t, events)
	if got, _ := pub.Query(advert.Query{Kind: advert.KindService, Name: "triana"}, 0); len(got) != 1 {
		t.Fatalf("renewed advert not discoverable: %v", got)
	}
}

func TestExplicitRetract(t *testing.T) {
	c := newCluster(t, 3, 2, nil)
	pub := c.client("pub", 2)
	sub := c.client("sub", 2)
	events, err := sub.Subscribe("watch", advert.Query{Kind: advert.KindService, Name: "triana"})
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(serviceAd("svc-1", "triana", time.Time{})); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, events)
	if err := pub.Retract("svc-1"); err != nil {
		t.Fatal(err)
	}
	if ev := waitEvent(t, events); !ev.Retracted || ev.ID != "svc-1" {
		t.Fatalf("want retraction, got %+v", ev)
	}
	expectQuiet(t, events)
	if got, _ := pub.Query(advert.Query{Kind: advert.KindService, Name: "triana"}, 0); len(got) != 0 {
		t.Fatalf("retracted advert still discoverable: %v", got)
	}
}

// TestAntiEntropyRepairsPartition cuts one replica off, publishes
// through the reachable side, heals, and checks one sync round carries
// the missed writes across — including the push to that replica's own
// subscribers.
func TestAntiEntropyRepairsPartition(t *testing.T) {
	c := newCluster(t, 2, 2, nil)
	pub := c.client("pub", 2)

	// A raw subscriber registered only at super-1, so the only way it
	// hears about the writes is super-1 learning them via sync.
	subHost, err := jxtaserve.NewHost("raw-sub", c.net.Peer("raw-sub"), "")
	if err != nil {
		t.Fatal(err)
	}
	defer subHost.Close()
	notified := make(chan string, 16)
	subHost.Handle(methodNotify, func(req *jxtaserve.Message) (*jxtaserve.Message, error) {
		notified <- req.Header("id")
		return &jxtaserve.Message{}, nil
	})
	qXML, err := advert.Query{Kind: advert.KindService}.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := subHost.Request(c.hosts[1].Addr(), methodSubscribe, qXML,
		map[string]string{"sub": "s1", "addr": subHost.Addr()}); err != nil {
		t.Fatal(err)
	}

	c.net.Partition([]string{"super-1"}, []string{"super-0", "pub"})
	for i := 0; i < 5; i++ {
		if err := pub.Publish(serviceAd(fmt.Sprintf("svc-%d", i), "triana", time.Time{})); err != nil {
			t.Fatalf("publish during partition: %v", err)
		}
	}
	if live, _ := c.supers[1].Entries(); live != 0 {
		t.Fatalf("partitioned super has %d entries, want 0", live)
	}

	c.net.Heal()
	pulled, err := c.supers[1].SyncWith(c.hosts[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	if pulled != 5 {
		t.Fatalf("sync pulled %d entries, want 5", pulled)
	}
	if live, _ := c.supers[1].Entries(); live != 5 {
		t.Fatalf("repaired super has %d live entries, want 5", live)
	}
	// Convergent: a second round finds nothing to pull.
	if pulled, _ := c.supers[1].SyncWith(c.hosts[0].Addr()); pulled != 0 {
		t.Fatalf("second sync pulled %d, want 0", pulled)
	}
	// The repaired super pushed the recovered adverts to its subscriber.
	got := make(map[string]bool)
	deadline := time.After(2 * time.Second)
	for len(got) < 5 {
		select {
		case id := <-notified:
			got[id] = true
		case <-deadline:
			t.Fatalf("subscriber saw %d recovered adverts, want 5", len(got))
		}
	}
}

// TestPublishAndQueryMessageCost pins the scaling claim: a publish
// costs O(R) messages and a topic query O(1), independent of how many
// super-peers (let alone edge peers) exist.
func TestPublishAndQueryMessageCost(t *testing.T) {
	costs := func(supers int) (publish, query int64) {
		c := newCluster(t, supers, 2, nil)
		pub := c.client("pub", 2)
		// Warm nothing: measure the steady-state RPC counts alone.
		c.net.ResetCounters()
		if err := pub.Publish(serviceAd("svc-1", "triana", time.Time{})); err != nil {
			t.Fatal(err)
		}
		publish = c.net.Messages()
		c.net.ResetCounters()
		if _, err := pub.Query(advert.Query{Kind: advert.KindService, Name: "triana"}, 0); err != nil {
			t.Fatal(err)
		}
		query = c.net.Messages()
		return publish, query
	}
	p3, q3 := costs(3)
	p8, q8 := costs(8)
	// R=2: client->owner request/reply + owner->replica request/reply.
	if p3 != 4 || p8 != 4 {
		t.Fatalf("publish cost = %d (3 supers) / %d (8 supers), want 4 messages both", p3, p8)
	}
	// One RPC round trip regardless of ring size.
	if q3 != 2 || q8 != 2 {
		t.Fatalf("query cost = %d (3 supers) / %d (8 supers), want 2 messages both", q3, q8)
	}
}

// TestChaosSuperPeerFailover is the acceptance chaos scenario: three
// super-peers at R=2, one killed, zero advert loss and failover pushes
// still reaching subscribers. Doubles as the overlay-smoke CI target.
func TestChaosSuperPeerFailover(t *testing.T) {
	c := newCluster(t, 3, 2, nil)
	c.net.FaultSeed(42)
	pub := c.client("pub", 2)
	sub := c.client("sub", 2)

	// Wildcard subscription registers at every super, so failover
	// pushes keep flowing from whichever owners survive.
	events, err := sub.Subscribe("all-services", advert.Query{Kind: advert.KindService})
	if err != nil {
		t.Fatal(err)
	}

	const before = 20
	topics := 5
	for i := 0; i < before; i++ {
		name := fmt.Sprintf("svc-%d", i%topics)
		if err := pub.Publish(serviceAd(fmt.Sprintf("ad-%d", i), name, time.Time{})); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[string]bool)
	for len(seen) < before {
		seen[waitEvent(t, events).ID] = true
	}

	c.net.Kill("super-1")

	// Zero advert loss: every topic remains fully queryable through the
	// surviving replica of its owner pair.
	found := make(map[string]bool)
	for i := 0; i < topics; i++ {
		got, err := pub.Query(advert.Query{Kind: advert.KindService, Name: fmt.Sprintf("svc-%d", i)}, 0)
		if err != nil {
			t.Fatalf("query svc-%d after kill: %v", i, err)
		}
		for _, ad := range got {
			found[ad.ID] = true
		}
	}
	if len(found) != before {
		t.Fatalf("found %d/%d adverts after killing super-1 — advert loss with R=2", len(found), before)
	}

	// Failover pushes: new publishes after the kill still reach the
	// subscriber via the surviving owners.
	const after = 5
	for i := 0; i < after; i++ {
		name := fmt.Sprintf("svc-%d", i%topics)
		if err := pub.Publish(serviceAd(fmt.Sprintf("post-%d", i), name, time.Time{})); err != nil {
			t.Fatalf("publish after kill: %v", err)
		}
	}
	post := make(map[string]bool)
	for len(post) < after {
		ev := waitEvent(t, events)
		if ev.ID[:5] == "post-" {
			post[ev.ID] = true
		}
	}
}

func TestUnsubscribeStopsPushes(t *testing.T) {
	c := newCluster(t, 3, 2, nil)
	pub := c.client("pub", 2)
	sub := c.client("sub", 2)
	events, err := sub.Subscribe("watch", advert.Query{Kind: advert.KindService, Name: "triana"})
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(serviceAd("svc-1", "triana", time.Time{})); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, events)
	sub.Unsubscribe("watch")
	if _, ok := <-events; ok {
		t.Fatal("channel not closed by Unsubscribe")
	}
	if err := pub.Publish(serviceAd("svc-2", "triana", time.Time{})); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // nothing to assert beyond no panic/send on closed channel
	for _, sp := range c.supers {
		if n := sp.Subscriptions(); n != 0 {
			t.Fatalf("super still holds %d subscriptions after unsubscribe", n)
		}
	}
}
