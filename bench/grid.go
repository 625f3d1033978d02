package main

import (
	"fmt"
	"net"
	"time"

	"consumergrid/internal/controller"
	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/sandbox"
	"consumergrid/internal/service"
)

// wire is the production wire configuration (trianad's defaults): one
// multiplexed connection per peer pair, binary codec negotiated.
var wire = jxtaserve.WireOptions{Mux: true, Binary: true}

const (
	loopback = "127.0.0.1:0"
	// advertTTL outlives every run, so no advert expires mid-measurement.
	advertTTL = time.Hour
	// standUpTimeout bounds the wait for the pushed pool to seat every donor.
	standUpTimeout = 5 * time.Second
)

// grid is a production-configured consumer grid inside this process:
// two super-peers forming an R=2 overlay ring, donors with the data
// tier on, and a controller holding a pushed donor pool — all talking
// over loopback TCP.
type grid struct {
	supers []*service.Service
	donors []*service.Service
	ctl    *controller.Controller
	pool   *controller.DonorPool
	// superAddrs is the ring every participant is configured with.
	superAddrs []string
}

// reservePorts picks n free loopback ports. Every ring member must be
// configured with the whole ring before it starts, so the supers cannot
// use port 0.
func reservePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", loopback)
		if err != nil {
			return nil, err
		}
		addrs[i] = l.Addr().String()
		if err := l.Close(); err != nil {
			return nil, err
		}
	}
	return addrs, nil
}

// overlayOpts configures a ring participant; super marks a ring member.
func (g *grid) overlayOpts(super bool) *service.OverlayOptions {
	return &service.OverlayOptions{SuperPeers: g.superAddrs, SuperPeer: super, Replication: 2}
}

// newDonor starts one donor daemon on the grid's ring. It does not
// advertise: the caller decides when the donor joins.
func (g *grid) newDonor(id string) (*service.Service, error) {
	return service.New(service.Options{
		PeerID:    id,
		Transport: jxtaserve.TCP{},
		Addr:      loopback,
		Overlay:   g.overlayOpts(false),
		Wire:      wire,
		DataTier:  service.DataTierOptions{Enable: true},
		Sandbox:   sandbox.AllowCompute(512 << 20),
		CPUMHz:    2000,
		FreeRAMMB: 512,
	})
}

// standUp builds the grid and returns once the controller's pool has
// seated every donor.
func standUp(donors int) (*grid, error) {
	g := &grid{}
	ok := false
	defer func() {
		if !ok {
			g.close()
		}
	}()
	var err error
	if g.superAddrs, err = reservePorts(2); err != nil {
		return nil, err
	}
	for i, addr := range g.superAddrs {
		sp, err := service.New(service.Options{
			PeerID:    fmt.Sprintf("sp-%d", i),
			Transport: jxtaserve.TCP{},
			Addr:      addr,
			Overlay:   g.overlayOpts(true),
			Wire:      wire,
		})
		if err != nil {
			return nil, fmt.Errorf("super %d: %w", i, err)
		}
		g.supers = append(g.supers, sp)
	}
	ctlSvc, err := service.New(service.Options{
		PeerID:    "controller",
		Transport: jxtaserve.TCP{},
		Addr:      loopback,
		Overlay:   g.overlayOpts(false),
		Wire:      wire,
		DataTier:  service.DataTierOptions{Enable: true},
		Tenants:   map[string]int{"t0": 1, "t1": 1},
	})
	if err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	g.ctl = controller.New(ctlSvc, nil)
	// One shard: the default derives shard names from the supers'
	// addresses, which are ephemeral ports here, so donor placement — and
	// whether a shard can seat a quorum — would differ run to run.
	if g.pool, err = g.ctl.StartDonorPool(controller.RunOptions{PoolShards: 1}); err != nil {
		return nil, err
	}
	for i := 0; i < donors; i++ {
		d, err := g.newDonor(fmt.Sprintf("w%d", i))
		if err != nil {
			return nil, fmt.Errorf("donor %d: %w", i, err)
		}
		g.donors = append(g.donors, d)
		if err := d.Advertise(advertTTL); err != nil {
			return nil, fmt.Errorf("donor %d advertise: %w", i, err)
		}
	}
	if err := waitUntil(standUpTimeout, func() bool { return g.pool.Size() == donors }); err != nil {
		return nil, fmt.Errorf("pool seated %d of %d donors: %w", g.pool.Size(), donors, err)
	}
	ok = true
	return g, nil
}

// peerIDs lists every resident peer, for per-peer counter series.
func (g *grid) peerIDs() []string {
	ids := []string{"controller"}
	for _, s := range g.supers {
		ids = append(ids, s.PeerID())
	}
	for _, d := range g.donors {
		ids = append(ids, d.PeerID())
	}
	return ids
}

func (g *grid) close() {
	if g.pool != nil {
		g.pool.Close()
	}
	if g.ctl != nil {
		g.ctl.Service().Close()
	}
	for _, d := range g.donors {
		d.Close()
	}
	for _, s := range g.supers {
		s.Close()
	}
}

// waitUntil polls cond until it holds or the timeout passes.
func waitUntil(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v", timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}
