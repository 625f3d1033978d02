package controller

import (
	"context"
	"testing"
	"time"

	"consumergrid/internal/advert"
	"consumergrid/internal/metrics"
	"consumergrid/internal/policy"
	"consumergrid/internal/service"
	"consumergrid/internal/taskgraph"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestDonorPoolTracksAdverts pins the tentpole controller integration:
// the pool seeds from existing adverts at subscribe time, absorbs later
// arrivals by push (no re-query), orders donors like DiscoverPeers, and
// drops donors whose adverts are retracted after expiry.
func TestDonorPoolTracksAdverts(t *testing.T) {
	net := newNet(t, 2, cpus(1000, 3000))
	// worker-a advertises before the pool exists: the subscription seeds it.
	if err := net.workers[0].Advertise(time.Hour); err != nil {
		t.Fatal(err)
	}
	pool, err := net.ctl.StartDonorPool(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	waitFor(t, "seeded donor", func() bool { return pool.Size() == 1 })

	// worker-b arrives afterwards: a push, not a query, delivers it.
	if err := net.workers[1].Advertise(time.Hour); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pushed donor", func() bool { return pool.Size() == 2 })

	peers := pool.Peers()
	if peers[0].ID != workerID(1) || peers[1].ID != workerID(0) {
		t.Fatalf("pool order = %v, want strongest CPU first", peers)
	}

	// Run's and RunFarm's candidates come from candidateAdverts; check it
	// reads the pool and that the farm's filters hold on it.
	for _, tc := range []struct {
		filter RunOptions
		want   int
	}{{RunOptions{}, 2}, {RunOptions{MinCPUMHz: 2000}, 1}} {
		ads, from, err := net.ctl.candidateAdverts(tc.filter)
		if err != nil || from != pool {
			t.Fatalf("candidateAdverts(%+v) read pool %p (err %v), want the running pool", tc.filter, from, err)
		}
		if got := net.ctl.candidates(ads, tc.filter); len(got) != tc.want || got[0].ID != workerID(1) {
			t.Fatalf("pooled candidates(%+v) = %v, want %d led by the strongest", tc.filter, got, tc.want)
		}
	}

	// worker-a's advert expires; the sweep's retraction push removes it.
	if err := net.workers[0].Advertise(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	for _, sp := range net.supers {
		sp.SweepOnce()
	}
	waitFor(t, "retraction to shrink pool", func() bool { return pool.Size() == 1 })
	if peers := pool.Peers(); peers[0].ID != workerID(1) {
		t.Fatalf("pool after retraction = %v, want only %s", peers, workerID(1))
	}
}

// TestDonorPoolFallback: without a pool (or with an empty one) the
// controller falls back to pull discovery, so RunFarm never regresses
// for one-shot controllers.
func TestDonorPoolFallback(t *testing.T) {
	net := newNet(t, 1, cpus(2000))
	pool, err := net.ctl.StartDonorPool(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, from, _ := net.ctl.candidateAdverts(RunOptions{}); from != nil {
		t.Fatal("empty pool should defer to pull discovery")
	}
	// Closing deregisters the pool from the controller.
	pool.Close()
	net.ctl.mu.Lock()
	registered := net.ctl.pool
	net.ctl.mu.Unlock()
	if registered != nil {
		t.Fatal("closed pool still registered on controller")
	}
	// The overlay still answers pull queries for RunFarm's fallback.
	if err := net.workers[0].Advertise(time.Hour); err != nil {
		t.Fatal(err)
	}
	peers, _, _, err := net.ctl.farmCandidates(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 1 || peers[0].ID != workerID(0) {
		t.Fatalf("poolless farm candidates = %v, want worker-a", peers)
	}
}

// TestPooledRunSendsNoQuery: with a donor pool running, Run plans over
// the pool's donors and sends the overlay no query, as RunFarm does.
func TestPooledRunSendsNoQuery(t *testing.T) {
	net := newNet(t, 2, nil)
	pool, err := net.ctl.StartDonorPool(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	advertiseAll(t, net)
	waitFor(t, "donors pooled", func() bool { return pool.Size() == 2 })

	queries := metrics.Default().Counter(metrics.Series("overlay_client_queries_total", "peer", "controller"))
	before := queries.Value()
	rep, err := net.ctl.Run(context.Background(), figure1(t, policy.NameParallel),
		RunOptions{Iterations: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkSignal(t, rep, 4)
	if len(rep.Peers) != 2 {
		t.Errorf("pooled run used peers %v, want both donors", rep.Peers)
	}
	if n := queries.Value() - before; n != 0 {
		t.Errorf("pooled Run sent %d overlay queries, want 0", n)
	}
}

// TestPooledFarmHonoursDiscoveryFilters: a running pool is only a
// cheaper source of candidates, so a farm's discovery filters must hold
// on it exactly as they do on a pull query.
func TestPooledFarmHonoursDiscoveryFilters(t *testing.T) {
	net := newNet(t, 2, func(i int) service.Options {
		return []service.Options{
			{CPUMHz: 3000, FreeRAMMB: 256, PeerGroup: "swansea"},
			{CPUMHz: 1000, FreeRAMMB: 1024, PeerGroup: "cardiff"},
		}[i]
	})
	pool, err := net.ctl.StartDonorPool(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	advertiseAll(t, net)
	waitFor(t, "donors pooled", func() bool { return pool.Size() == 2 })

	for _, tc := range []struct {
		filter RunOptions
		want   string
	}{
		{RunOptions{PeerGroup: "cardiff"}, workerID(1)},
		{RunOptions{MinCPUMHz: 2000}, workerID(0)},
		{RunOptions{MinFreeRAMMB: 512}, workerID(1)},
	} {
		rep, err := net.ctl.RunFarm(context.Background(), smokeChunks(4, 2, 0), FarmOptions{
			Discovery: tc.filter,
			Body:      func() *taskgraph.Graph { return smokeBody(t) },
		})
		if err != nil {
			t.Fatalf("farm with %+v: %v", tc.filter, err)
		}
		if n := rep.PeerChunks[tc.want]; n != 4 {
			t.Errorf("farm with %+v committed %v, want all 4 chunks on %s", tc.filter, rep.PeerChunks, tc.want)
		}
	}
}

// TestAdvertTrafficIsOneAdvertPerPeer pins what one donor costs the
// overlay with two supers at R=2 and one pooled controller. The service
// advert is the donor's only advert, group membership included, so an
// Advertise is one client publish, one replica and one push per super;
// a drain is one retraction and one push per super; and each super
// stores one entry for the donor.
func TestAdvertTrafficIsOneAdvertPerPeer(t *testing.T) {
	net := newNet(t, 1, nil)
	pool, err := net.ctl.StartDonorPool(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	w := net.workers[0]
	counter := func(family, peer string) int64 {
		return metrics.Default().Counter(metrics.Series(family, "peer", peer)).Value()
	}
	supers := func(family string) int64 { return counter(family, "sp-0") + counter(family, "sp-1") }
	type traffic struct{ publishes, replicas, retractions, notifies int64 }
	read := func() traffic {
		return traffic{
			publishes:   counter("overlay_client_publishes_total", w.PeerID()),
			replicas:    supers("overlay_replicas_total"),
			retractions: supers("overlay_retractions_total"),
			notifies:    supers("overlay_notifies_total"),
		}
	}
	// since waits for the two pushes to land, then for any straggler a
	// second advert would add, and reports the traffic since base.
	since := func(base traffic) traffic {
		waitFor(t, "pushes to both supers' subscriber", func() bool { return read().notifies-base.notifies >= 2 })
		time.Sleep(50 * time.Millisecond)
		now := read()
		return traffic{now.publishes - base.publishes, now.replicas - base.replicas,
			now.retractions - base.retractions, now.notifies - base.notifies}
	}

	base := read()
	if err := w.Advertise(time.Hour); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "donor pooled", func() bool { return pool.Size() == 1 })
	if got, want := since(base), (traffic{publishes: 1, replicas: 1, notifies: 2}); got != want {
		t.Errorf("one Advertise cost %+v, want %+v", got, want)
	}
	for _, sp := range net.supers {
		if live, _ := sp.Entries(); live != 1 {
			t.Errorf("a super stores %d entries for one advertised donor, want 1", live)
		}
	}

	base = read()
	<-w.BeginDrain(time.Second)
	waitFor(t, "donor unpooled", func() bool { return pool.Size() == 0 })
	if got, want := since(base), (traffic{retractions: 2, notifies: 2}); got != want {
		t.Errorf("one drain cost %+v, want %+v", got, want)
	}
	if _, members := pool.GroupIndex().Counts(); members != 0 {
		t.Errorf("drained donor still indexed in %d group memberships", members)
	}
}

// TestSharedAdvertsSurviveFarmAndPull: the overlay client hands the
// pool, the farm's candidate routine and the discovery pull one shared
// advert per donor, read-only. After a pooled RunFarm that resolves a
// capability group and a DiscoverPeers pull with the same requirement,
// every advert the pool holds and every advert the pull returned still
// encodes to what its donor published.
func TestSharedAdvertsSurviveFarmAndPull(t *testing.T) {
	net := mixedRing(t)
	pool, err := net.ctl.StartDonorPool(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	published := make(map[string]string)
	for _, w := range net.workers {
		ad := w.ServiceAdvert(time.Hour)
		b, err := ad.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		published[ad.PeerID] = string(b)
		if err := w.Overlay().Publish(ad); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "donors pooled", func() bool { return pool.Size() == len(net.workers) })

	opts := groupFarmOpts(t, map[string]string{"units": "r-v1"})
	before := jobCounts(net)
	rep, err := net.ctl.RunFarm(context.Background(), smokeChunks(3, 2, 0), opts)
	if err != nil {
		t.Fatal(err)
	}
	assertGroupOnly(t, net, rep, map[string]bool{workerID(0): true, workerID(1): true}, before)
	refs, err := net.ctl.DiscoverPeers(opts.Discovery)
	if err != nil || len(refs) != 2 {
		t.Fatalf("DiscoverPeers = %v, %v; want the two r-v1 donors", refs, err)
	}
	pulled, err := net.ctl.svc.Discover(discoveryQuery(opts.Discovery), 0)
	if err != nil || len(pulled) != 2 {
		t.Fatalf("pull = %v, %v", pulled, err)
	}
	check := func(where string, ads []*advert.Advertisement) {
		t.Helper()
		for _, ad := range ads {
			b, err := ad.MarshalText()
			if err != nil || string(b) != published[ad.PeerID] {
				t.Errorf("%s advert of %s encodes to %q, %v; its donor published %q", where, ad.PeerID, b, err, published[ad.PeerID])
			}
		}
	}
	check("pooled", pool.adverts())
	check("pulled", pulled)
}
