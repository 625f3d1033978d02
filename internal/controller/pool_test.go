package controller

import (
	"testing"
	"time"

	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/overlay"
	"consumergrid/internal/service"
)

// overlayNet is an overlay-backed counterpart of newNet: two standalone
// super-peers plus services (controller and workers) running in
// discovery.ModeOverlay against them.
type overlayNet struct {
	tr      *jxtaserve.InProc
	supers  []*overlay.SuperPeer
	ctl     *Controller
	workers []*service.Service
}

func newOverlayNet(t *testing.T, workerCPUs []int) *overlayNet {
	t.Helper()
	tr := jxtaserve.NewInProc()
	ring := overlay.NewRing(0)
	net := &overlayNet{tr: tr}
	var superAddrs []string
	for _, id := range []string{"sp-0", "sp-1"} {
		h, err := jxtaserve.NewHost(id, tr, "")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close() })
		ring.Add(h.Addr())
		superAddrs = append(superAddrs, h.Addr())
		sp, err := overlay.NewSuper(h, overlay.SuperOptions{
			Ring: ring, Replication: 2, SweepInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sp.Close)
		net.supers = append(net.supers, sp)
	}
	newSvc := func(id string, cpu int) *service.Service {
		s, err := service.New(service.Options{
			PeerID: id, Transport: tr, CPUMHz: cpu, FreeRAMMB: 256,
			Overlay: &service.OverlayOptions{
				SuperPeers: superAddrs, Replication: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	for i, cpu := range workerCPUs {
		net.workers = append(net.workers, newSvc(workerID(i), cpu))
	}
	net.ctl = New(newSvc("controller", 1000), t.Logf)
	return net
}

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
	net := newOverlayNet(t, []int{1000, 3000})
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

	// RunFarm's peer source is pooledShardPeers; check it reads the pool
	// and honours MaxPeers. Needing both donors seated takes shard
	// placement out of the picture: a thinner shard defers to the pool.
	if got := net.ctl.pooledShardPeers(0, "farm", 2); len(got) != 2 {
		t.Fatalf("pooledShardPeers = %v, want both workers", got)
	}
	if got := net.ctl.pooledShardPeers(1, "farm", 2); len(got) != 1 || got[0].ID != workerID(1) {
		t.Fatalf("pooledShardPeers(max 1) = %v, want just the strongest", got)
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
// for flat deployments.
func TestDonorPoolFallback(t *testing.T) {
	net := newOverlayNet(t, []int{2000})
	if got := net.ctl.pooledShardPeers(0, "farm", 1); got != nil {
		t.Fatalf("pooledShardPeers without a pool = %v, want nil", got)
	}
	pool, err := net.ctl.StartDonorPool(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := net.ctl.pooledShardPeers(0, "farm", 1); got != nil {
		t.Fatalf("empty pool should defer to pull discovery, got %v", got)
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
	peers, err := net.ctl.DiscoverPeers(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 1 || peers[0].ID != workerID(0) {
		t.Fatalf("fallback DiscoverPeers = %v, want worker-a", peers)
	}
}
