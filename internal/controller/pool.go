package controller

import (
	"fmt"
	"sort"
	"strconv"
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

	// byAdvert resolves retractions (which carry only the advert ID)
	// back to the peer, and thus the owning shard. Touched only by the
	// single event-loop goroutine, so it needs no lock.
	byAdvert map[string]string

	// groups is the capability-group partition of the pool: a second
	// push-maintained subscription (Kind "group") feeds a live
	// membership index, so "any member of group G" resolves without a
	// discovery round trip. gsubID names that subscription.
	groups *capgroup.Index
	gsubID string

	wg sync.WaitGroup
}

// poolShard is one independently-locked slice of the donor pool.
type poolShard struct {
	name string

	mu     sync.Mutex
	donors map[string]donorEntry // by peer ID
	events int
}

type donorEntry struct {
	ref service.PeerRef
	cpu float64
}

// discoveryQuery translates the discovery filters of RunOptions into an
// advert query — shared by DiscoverPeers (pull) and StartDonorPool
// (push) so both paths select identical donors.
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
		byAdvert: make(map[string]string),
	}
	for _, n := range names {
		p.shards[n] = &poolShard{name: n, donors: make(map[string]donorEntry)}
	}
	events, err := cl.Subscribe(p.subID, discoveryQuery(opts))
	if err != nil {
		return nil, err
	}
	// The group partition: membership adverts push through their own
	// subscription into a live index, each event loop owning its own
	// advert-ID map.
	p.groups = capgroup.NewIndex()
	p.gsubID = p.subID + "/groups"
	gevents, err := cl.Subscribe(p.gsubID, advert.Query{Kind: advert.KindGroup})
	if err != nil {
		cl.Unsubscribe(p.subID)
		return nil, err
	}
	p.wg.Add(2)
	go func() {
		defer p.wg.Done()
		p.loop(events)
	}()
	go func() {
		defer p.wg.Done()
		p.groupLoop(gevents)
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

func (p *DonorPool) loop(events <-chan overlay.Event) {
	for ev := range events {
		if ev.Retracted {
			peerID, ok := p.byAdvert[ev.ID]
			if !ok {
				continue
			}
			delete(p.byAdvert, ev.ID)
			sh := p.shardForDonor(peerID)
			sh.mu.Lock()
			sh.events++
			delete(sh.donors, peerID)
			sh.mu.Unlock()
		} else if ev.Ad != nil {
			cpu, _ := strconv.ParseFloat(ev.Ad.Attr(advert.AttrCPUMHz), 64)
			p.byAdvert[ev.ID] = ev.Ad.PeerID
			sh := p.shardForDonor(ev.Ad.PeerID)
			sh.mu.Lock()
			sh.events++
			sh.donors[ev.Ad.PeerID] = donorEntry{
				ref: service.PeerRef{ID: ev.Ad.PeerID, Addr: ev.Ad.Addr},
				cpu: cpu,
			}
			sh.mu.Unlock()
		}
	}
}

// groupLoop absorbs membership pushes into the group index. Like loop,
// it owns its advert-ID map outright — retractions carry only the
// advert ID, and only this goroutine touches the map.
func (p *DonorPool) groupLoop(events <-chan overlay.Event) {
	type groupRef struct{ key, peerID string }
	byAdvert := make(map[string]groupRef)
	for ev := range events {
		if ev.Retracted {
			ref, ok := byAdvert[ev.ID]
			if !ok {
				continue
			}
			delete(byAdvert, ev.ID)
			p.groups.Drop(ref.key, ref.peerID)
		} else if ev.Ad != nil {
			caps, key, ok := capgroup.FromAdvert(ev.Ad)
			if !ok {
				continue
			}
			cpu, _ := strconv.ParseFloat(ev.Ad.Attr(advert.AttrCPUMHz), 64)
			byAdvert[ev.ID] = groupRef{key: key, peerID: ev.Ad.PeerID}
			p.groups.Put(key, caps, capgroup.Member{
				PeerID: ev.Ad.PeerID, Addr: ev.Ad.Addr, CPUMHz: cpu,
			})
		} else {
			continue
		}
		capgroup.SetIndexGauges(p.groups.Counts())
	}
}

// GroupIndex exposes the live membership index.
func (p *DonorPool) GroupIndex() *capgroup.Index { return p.groups }

// Groups snapshots every group the pool has observed.
func (p *DonorPool) Groups() []capgroup.GroupInfo { return p.groups.Snapshot() }

// MatchGroup resolves a capability requirement to the best-populated
// matching group that holds at least one despatchable member. False
// means no populated group matches — the caller falls back to the
// health-ranked whole pool.
func (p *DonorPool) MatchGroup(req map[string]string) (string, []service.PeerRef, bool) {
	return matchGroup(p.groups, p.ctl.svc.PeerID(), req)
}

// matchGroup is the one group-resolution routine, serving the pool's
// live index and the poolless pull path's transient one alike: the
// first group in best-populated-first match order with a member other
// than self wins, its members listed strongest advertised CPU first.
func matchGroup(idx *capgroup.Index, self string, req map[string]string) (string, []service.PeerRef, bool) {
	for _, key := range idx.MatchAll(req) {
		var refs []service.PeerRef
		for _, m := range idx.Members(key) {
			if m.PeerID != self {
				refs = append(refs, service.PeerRef{ID: m.PeerID, Addr: m.Addr})
			}
		}
		if len(refs) > 0 {
			return key, refs, true
		}
	}
	return "", nil, false
}

// peersOf snapshots one shard's donors, strongest advertised CPU first
// and the controller's own peer excluded.
func (p *DonorPool) peersOf(sh *poolShard) []service.PeerRef {
	sh.mu.Lock()
	entries := make([]donorEntry, 0, len(sh.donors))
	for id, e := range sh.donors {
		if id == p.ctl.svc.PeerID() {
			continue
		}
		entries = append(entries, e)
	}
	sh.mu.Unlock()
	return sortedRefs(entries)
}

func sortedRefs(entries []donorEntry) []service.PeerRef {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].cpu != entries[j].cpu {
			return entries[i].cpu > entries[j].cpu
		}
		return entries[i].ref.ID < entries[j].ref.ID
	})
	out := make([]service.PeerRef, len(entries))
	for i, e := range entries {
		out[i] = e.ref
	}
	return out
}

// Peers snapshots the live donors across every shard, strongest
// advertised CPU first and the controller's own peer excluded — the
// same order DiscoverPeers produces, minus the round trips.
func (p *DonorPool) Peers() []service.PeerRef {
	var entries []donorEntry
	for _, name := range p.names {
		sh := p.shards[name]
		sh.mu.Lock()
		for id, e := range sh.donors {
			if id == p.ctl.svc.PeerID() {
				continue
			}
			entries = append(entries, e)
		}
		sh.mu.Unlock()
	}
	return sortedRefs(entries)
}

// ShardPeers snapshots the donors of the shard owning key — the
// shard-local candidate set a farm despatches over. A shard that holds
// no donors (small grids, uneven hash) falls back to the whole pool so
// a farm never starves while donors exist elsewhere.
func (p *DonorPool) ShardPeers(key string) []service.PeerRef { return p.shardPeers(key, 1) }

// shardPeers is ShardPeers for a farm that must seat need donors at
// once (its quorum): a shard thinner than that defers to the whole
// pool, which may still hold the electorate the shard cannot.
func (p *DonorPool) shardPeers(key string, need int) []service.PeerRef {
	if peers := p.peersOf(p.shardFor(key)); len(peers) >= need {
		return peers
	}
	return p.Peers()
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

// Events reports how many pushes the pool has absorbed across shards —
// observability for the /overlay page and tests.
func (p *DonorPool) Events() int {
	total := 0
	for _, name := range p.names {
		sh := p.shards[name]
		sh.mu.Lock()
		total += sh.events
		sh.mu.Unlock()
	}
	return total
}

// Close withdraws both subscriptions and stops the pool.
func (p *DonorPool) Close() {
	if cl := p.ctl.svc.Overlay(); cl != nil {
		cl.Unsubscribe(p.subID)  // closes the event channel; loop exits
		cl.Unsubscribe(p.gsubID) // same for the group partition
	}
	p.wg.Wait()
	p.ctl.mu.Lock()
	if p.ctl.pool == p {
		p.ctl.pool = nil
	}
	p.ctl.mu.Unlock()
}
