package controller

import (
	"fmt"
	"sync"

	"consumergrid/internal/advert"
	"consumergrid/internal/capgroup"
	"consumergrid/internal/overlay"
	"consumergrid/internal/service"
)

// DonorPool is the event-driven replacement for query-before-every-run
// donor discovery: the controller registers one persistent subscription
// with the overlay and the super-peers push donor arrivals, departures
// and capability changes as they happen. Run and RunFarm then read the
// live pool instead of paying a discovery round trip each.
type DonorPool struct {
	ctl   *Controller
	subID string

	mu     sync.Mutex
	donors map[string]*advert.Advertisement // service advert, by peer ID

	// groups is the capability-group partition of the pool: the same
	// service adverts that seat donors in the pool also index their
	// group membership, so "any member of group G" resolves without a
	// discovery round trip.
	groups *capgroup.Index

	// byAdvert resolves retractions (which carry only the advert ID)
	// back to the peer and to the group it was indexed under. Touched
	// only by the event loop, so it needs no lock.
	byAdvert map[string]pooledAdvert

	wg sync.WaitGroup
}

// pooledAdvert is what the pool remembers of one live advert ID.
type pooledAdvert struct{ peerID, group string }

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
// the given filters and keeps a live pool from the pushes. Requires the
// service to be running on the overlay. The pool stays registered until
// Close; Run and RunFarm draw their candidates from it without querying.
func (c *Controller) StartDonorPool(opts RunOptions) (*DonorPool, error) {
	cl := c.svc.Overlay()
	if cl == nil {
		return nil, fmt.Errorf("controller: donor pool requires the discovery overlay")
	}
	p := &DonorPool{
		ctl:      c,
		subID:    "donor-pool/" + c.svc.PeerID(),
		donors:   make(map[string]*advert.Advertisement),
		groups:   capgroup.NewIndex(),
		byAdvert: make(map[string]pooledAdvert),
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

// loop absorbs the pushes: each advert seats (or unseats) its donor in
// the pool and its group membership in the index.
func (p *DonorPool) loop(events <-chan overlay.Event) {
	for ev := range events {
		prev, known := p.byAdvert[ev.ID]
		switch {
		case ev.Retracted:
			if !known {
				continue
			}
			delete(p.byAdvert, ev.ID)
			p.mu.Lock()
			delete(p.donors, prev.peerID)
			p.mu.Unlock()
			p.groups.Drop(prev.group, prev.peerID)
		case ev.Ad != nil:
			peerID := ev.Ad.PeerID
			group, _ := p.groups.PutAdvert(ev.Ad)
			if known && prev.group != group {
				// Re-advertised under a new capability set.
				p.groups.Drop(prev.group, peerID)
			}
			p.byAdvert[ev.ID] = pooledAdvert{peerID: peerID, group: group}
			p.mu.Lock()
			p.donors[peerID] = ev.Ad
			p.mu.Unlock()
		default:
			continue
		}
		capgroup.SetIndexGauges(p.groups.Counts())
	}
}

// GroupIndex exposes the live membership index.
func (p *DonorPool) GroupIndex() *capgroup.Index { return p.groups }

// adverts snapshots every pooled donor advert.
func (p *DonorPool) adverts() []*advert.Advertisement {
	p.mu.Lock()
	defer p.mu.Unlock()
	ads := make([]*advert.Advertisement, 0, len(p.donors))
	for _, ad := range p.donors {
		ads = append(ads, ad)
	}
	return ads
}

// Peers lists the live donors, ranked like DiscoverPeers (strongest
// advertised CPU first, self excluded), minus the round trips.
func (p *DonorPool) Peers() []service.PeerRef { return p.ctl.candidates(p.adverts(), RunOptions{}) }

// ShardPeers is Peers: the pool has one donor set.
//
// Deprecated: key is ignored; use Peers.
func (p *DonorPool) ShardPeers(key string) []service.PeerRef { return p.Peers() }

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
