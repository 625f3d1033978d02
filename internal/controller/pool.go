package controller

import (
	"fmt"
	"sort"
	"sync"

	"consumergrid/internal/advert"
	"consumergrid/internal/capgroup"
	"consumergrid/internal/overlay"
	"consumergrid/internal/service"
)

// DonorPool is the event-driven replacement for query-before-every-farm
// donor discovery: the controller registers one persistent subscription
// with the overlay and the super-peers push donor arrivals, departures
// and capability changes as they happen. RunFarm then reads the live
// pool instead of paying a discovery round trip per farm.
//
// The pool is sharded: each shard owns the slice of donors the
// overlay's consistent-hash ring maps to it (the same Ring that places
// adverts, so shard ownership and advert placement agree), with its own
// mutex and maps. A farm is placed on one shard by hashing its
// (tenant, farm) key, so concurrent farms on different shards select
// candidates, rank health and race speculative attempts without ever
// touching a shared lock — the despatch plane scales with the shard
// count instead of serialising on one pool mutex.
type DonorPool struct {
	ctl   *Controller
	subID string

	// ring places donors and farms onto shards. Its members are the
	// overlay ring's nodes at StartDonorPool time (one shard per
	// super-peer) unless RunOptions.PoolShards forced a synthetic
	// shard count; membership is fixed for the pool's lifetime.
	ring   *overlay.Ring
	shards map[string]*poolShard
	names  []string // sorted shard names

	// groups is the capability-group partition of the pool: the same
	// service adverts that seat donors in their shards also index their
	// group membership, so "any member of group G" resolves without a
	// discovery round trip.
	groups *capgroup.Index

	// byAdvert resolves retractions (which carry only the advert ID)
	// back to the peer, and thus its shard, and to the group it was
	// indexed under. Touched only by the event loop, so it needs no
	// lock.
	byAdvert map[string]pooledAdvert

	wg sync.WaitGroup
}

// pooledAdvert is what the pool remembers of one live advert ID.
type pooledAdvert struct{ peerID, group string }

// poolShard is one independently-locked slice of the donor pool.
type poolShard struct {
	mu     sync.Mutex
	donors map[string]*advert.Advertisement // service advert, by peer ID
}

// adverts snapshots the shard's donor adverts.
func (sh *poolShard) adverts() []*advert.Advertisement {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ads := make([]*advert.Advertisement, 0, len(sh.donors))
	for _, ad := range sh.donors {
		ads = append(ads, ad)
	}
	return ads
}

// discoveryQuery translates the discovery filters of RunOptions into an
// advert query — what DiscoverPeers pulls, what StartDonorPool
// subscribes to, and what candidates filters every list by, so every
// path selects identical donors.
func discoveryQuery(opts RunOptions) advert.Query {
	q := advert.Query{Kind: advert.KindService, Name: service.ServiceType}
	if opts.MinCPUMHz > 0 || opts.MinFreeRAMMB > 0 {
		q.MinAttrs = map[string]float64{}
		if opts.MinCPUMHz > 0 {
			q.MinAttrs[advert.AttrCPUMHz] = opts.MinCPUMHz
		}
		if opts.MinFreeRAMMB > 0 {
			q.MinAttrs[advert.AttrFreeRAMMB] = opts.MinFreeRAMMB
		}
	}
	if opts.PeerGroup != "" {
		q.Attrs = map[string]string{advert.AttrGroup: opts.PeerGroup}
	}
	if len(opts.RequireCaps) > 0 {
		// Capability pairs ride service adverts as cap.* attributes, so
		// the pull path selects only capability-matching donors.
		if q.Attrs == nil {
			q.Attrs = map[string]string{}
		}
		for k, v := range opts.RequireCaps {
			q.Attrs[capgroup.AttrCap+k] = v
		}
	}
	return q
}

// StartDonorPool subscribes the controller to donor adverts matching
// the given filters and keeps a live sharded pool from the pushes.
// Requires the service to be running on the overlay. The pool stays
// registered until Close; subsequent RunFarm calls draw peers from
// their farm's shard without querying.
func (c *Controller) StartDonorPool(opts RunOptions) (*DonorPool, error) {
	cl := c.svc.Overlay()
	if cl == nil {
		return nil, fmt.Errorf("controller: donor pool requires the discovery overlay")
	}
	var names []string
	if opts.PoolShards > 0 {
		for i := 0; i < opts.PoolShards; i++ {
			names = append(names, fmt.Sprintf("shard-%d", i))
		}
	} else if r := cl.Ring(); r != nil {
		// Default ownership: one shard per overlay ring member, placed
		// by the same consistent hash that places the adverts.
		names = r.Nodes()
	}
	if len(names) == 0 {
		names = []string{"shard-0"}
	}
	sort.Strings(names)
	p := &DonorPool{
		ctl:      c,
		subID:    "donor-pool/" + c.svc.PeerID(),
		ring:     overlay.NewRing(0, names...),
		shards:   make(map[string]*poolShard, len(names)),
		names:    names,
		groups:   capgroup.NewIndex(),
		byAdvert: make(map[string]pooledAdvert),
	}
	for _, n := range names {
		p.shards[n] = &poolShard{donors: make(map[string]*advert.Advertisement)}
	}
	events, err := cl.Subscribe(p.subID, discoveryQuery(opts))
	if err != nil {
		return nil, err
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.loop(events)
	}()
	c.mu.Lock()
	c.pool = p
	c.mu.Unlock()
	return p, nil
}

// shardForDonor maps a donor onto its owning shard.
func (p *DonorPool) shardForDonor(peerID string) *poolShard {
	return p.shardFor("donor/" + peerID)
}

// shardFor resolves any placement key to a shard. A key the ring maps
// to an unknown member (cannot happen with a fixed ring, but cheap to
// guard) falls back to the first shard.
func (p *DonorPool) shardFor(key string) *poolShard {
	if sh, ok := p.shards[p.ring.Primary(key)]; ok {
		return sh
	}
	return p.shards[p.names[0]]
}

// loop absorbs the pushes: each advert seats (or unseats) its donor in
// the owning shard and its group membership in the index.
func (p *DonorPool) loop(events <-chan overlay.Event) {
	for ev := range events {
		prev, known := p.byAdvert[ev.ID]
		switch {
		case ev.Retracted:
			if !known {
				continue
			}
			delete(p.byAdvert, ev.ID)
			sh := p.shardForDonor(prev.peerID)
			sh.mu.Lock()
			delete(sh.donors, prev.peerID)
			sh.mu.Unlock()
			p.groups.Drop(prev.group, prev.peerID)
		case ev.Ad != nil:
			peerID := ev.Ad.PeerID
			group, _ := p.groups.PutAdvert(ev.Ad)
			if known && prev.group != group {
				// Re-advertised under a new capability set.
				p.groups.Drop(prev.group, peerID)
			}
			p.byAdvert[ev.ID] = pooledAdvert{peerID: peerID, group: group}
			sh := p.shardForDonor(peerID)
			sh.mu.Lock()
			sh.donors[peerID] = ev.Ad
			sh.mu.Unlock()
		default:
			continue
		}
		capgroup.SetIndexGauges(p.groups.Counts())
	}
}

// GroupIndex exposes the live membership index.
func (p *DonorPool) GroupIndex() *capgroup.Index { return p.groups }

// adverts snapshots every pooled donor advert across the shards.
func (p *DonorPool) adverts() []*advert.Advertisement {
	var ads []*advert.Advertisement
	for _, name := range p.names {
		ads = append(ads, p.shards[name].adverts()...)
	}
	return ads
}

// Peers lists the live donors across every shard, ranked like
// DiscoverPeers (strongest advertised CPU first, self excluded), minus
// the round trips.
func (p *DonorPool) Peers() []service.PeerRef { return p.ctl.candidates(p.adverts(), RunOptions{}) }

// ShardPeers snapshots the donors of the shard owning key — the
// shard-local candidate set a farm despatches over. A shard that holds
// no donors (small grids, uneven hash) falls back to the whole pool so
// a farm never starves while donors exist elsewhere.
func (p *DonorPool) ShardPeers(key string) []service.PeerRef {
	return p.shardPeers(key, RunOptions{}, 1)
}

// shardPeers is ShardPeers under a farm's discovery filters, for a farm
// that must seat need donors at once (its quorum): a shard with fewer
// matching donors than that defers to the whole pool, which may still
// hold the electorate the shard cannot.
func (p *DonorPool) shardPeers(key string, opts RunOptions, need int) []service.PeerRef {
	if peers := p.ctl.candidates(p.shardFor(key).adverts(), opts); len(peers) >= need {
		return peers
	}
	return p.ctl.candidates(p.adverts(), opts)
}

// ShardCount reports the number of shards.
func (p *DonorPool) ShardCount() int { return len(p.names) }

// ShardSizes reports each shard's donor count, keyed by shard name —
// observability for webstatus and tests.
func (p *DonorPool) ShardSizes() map[string]int {
	out := make(map[string]int, len(p.names))
	for _, name := range p.names {
		sh := p.shards[name]
		sh.mu.Lock()
		out[name] = len(sh.donors)
		sh.mu.Unlock()
	}
	return out
}

// Size reports the current donor count (excluding self).
func (p *DonorPool) Size() int { return len(p.Peers()) }

// Close withdraws the subscription and stops the pool.
func (p *DonorPool) Close() {
	if cl := p.ctl.svc.Overlay(); cl != nil {
		cl.Unsubscribe(p.subID) // closes the event channel; loop exits
	}
	p.wg.Wait()
	p.ctl.mu.Lock()
	if p.ctl.pool == p {
		p.ctl.pool = nil
	}
	p.ctl.mu.Unlock()
}
