// Package controller implements the Triana Controller of §3.2: "a user
// interface to Triana service daemons ... [that] acts as a scheduling
// manager for the complete application being run over a Triana network."
//
// A Controller wraps its own Service peer (the client component that
// pipes modules, programs and data to the other Triana service daemons)
// and adds the scheduling layer: discover candidate peers by capability,
// instantiate the group's distribution policy, annotate the task graph
// with the placement decision, and enact the plan.
package controller

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"consumergrid/internal/advert"
	"consumergrid/internal/capgroup"
	"consumergrid/internal/engine"
	"consumergrid/internal/policy"
	"consumergrid/internal/service"
	"consumergrid/internal/taskgraph"
	"consumergrid/internal/types"
	"consumergrid/internal/units"
)

// Controller drives applications over a Triana network.
type Controller struct {
	svc  *service.Service
	logf func(format string, args ...any)

	mu   sync.Mutex
	pool *DonorPool
}

// New wraps a service peer as a controller. The service's host despatches
// subgraphs and owns the module bundles the workers fetch.
func New(svc *service.Service, logf func(string, ...any)) *Controller {
	return &Controller{svc: svc, logf: logf}
}

// Service exposes the controller's own peer.
func (c *Controller) Service() *service.Service { return c.svc }

// RunOptions configures one application run.
type RunOptions struct {
	// Iterations drives the graph's source units.
	Iterations int
	// Seed makes runs reproducible.
	Seed int64
	// MinCPUMHz / MinFreeRAMMB filter candidate peers by the advertised
	// attributes (§4: peers "discovered based on very simple attributes
	// – such as CPU capability and available free memory").
	MinCPUMHz    float64
	MinFreeRAMMB float64
	// PeerGroup restricts candidates to a virtual peer group.
	PeerGroup string
	// RequireCaps restricts candidates to donors whose capability set
	// carries every listed key=value pair exactly (trianad
	// -require-caps). RunFarm resolves it through the capability-group
	// index of its candidate adverts to one group — despatch,
	// speculation and quorum then stay inside that group — while an
	// empty or unknown group falls back to the health-ranked whole
	// pool, counted on capgroup_fallback_total. Discovery filters
	// service adverts by the same pairs.
	RequireCaps map[string]string
	// ForceLocal skips discovery and runs everything in-process.
	ForceLocal bool
	// Deprecated: ignored. The donor pool has one donor set.
	PoolShards int
}

// Report describes a completed run.
type Report struct {
	// Dist carries the local engine result plus remote per-task counts.
	Dist *service.DistResult
	// Plan is the enacted distribution plan (nil for plain local runs).
	Plan *policy.Plan
	// GroupName is the distributed group ("" for plain local runs).
	GroupName string
	// Peers lists the peer IDs that participated.
	Peers []string
	// Annotated is the placement-annotated copy of the input graph.
	Annotated *taskgraph.Graph
}

// Result is a convenience accessor for the local engine result.
func (r *Report) Result() *engine.Result { return r.Dist.Local }

// DiscoverPeers queries the discovery layer for usable Triana services,
// ranked by candidates: strongest advertised CPU first, so the policy
// gets the strongest peers first, and this controller's own peer
// excluded. It always pulls, pool or no pool.
func (c *Controller) DiscoverPeers(opts RunOptions) ([]service.PeerRef, error) {
	ads, err := c.svc.Discover(discoveryQuery(opts), 0)
	if err != nil {
		return nil, err
	}
	return c.candidates(ads, opts), nil
}

// candidateAdverts is where Run, RunFarm and group resolution get their
// donor adverts: the running donor pool's, when one of them passes the
// run's filters, else one discovery pull. It returns the pool whose
// adverts it returned, nil for a pull.
func (c *Controller) candidateAdverts(opts RunOptions) ([]*advert.Advertisement, *DonorPool, error) {
	c.mu.Lock()
	p := c.pool
	c.mu.Unlock()
	q := discoveryQuery(opts)
	if p != nil {
		ads := p.adverts()
		for _, ad := range ads {
			if ad.PeerID != c.svc.PeerID() && q.Matches(ad) {
				return ads, p, nil
			}
		}
	}
	ads, err := c.svc.Discover(q, 0)
	return ads, nil, err
}

// candidates is the one routine every candidate list passes through,
// pulled or pooled: it keeps the donor adverts matching the run's
// discovery filters, orders them by advertised CPU, strongest first
// (ties by peer ID) and drops the controller's own peer. Nil when
// nothing qualifies.
func (c *Controller) candidates(ads []*advert.Advertisement, opts RunOptions) []service.PeerRef {
	type ranked struct {
		ad  *advert.Advertisement
		cpu float64
	}
	q := discoveryQuery(opts)
	keep := make([]ranked, 0, len(ads))
	for _, ad := range ads {
		if ad.PeerID == c.svc.PeerID() || !q.Matches(ad) {
			continue
		}
		cpu, _ := strconv.ParseFloat(ad.Attr(advert.AttrCPUMHz), 64)
		keep = append(keep, ranked{ad, cpu})
	}
	if len(keep) == 0 {
		return nil
	}
	slices.SortFunc(keep, func(a, b ranked) int {
		if a.cpu != b.cpu {
			if a.cpu > b.cpu {
				return -1
			}
			return 1
		}
		return strings.Compare(a.ad.PeerID, b.ad.PeerID)
	})
	refs := make([]service.PeerRef, len(keep))
	for i, k := range keep {
		refs[i] = service.PeerRef{ID: k.ad.PeerID, Addr: k.ad.Addr}
	}
	return refs
}

// distributableGroups lists top-level groups carrying a non-local
// control unit.
func distributableGroups(g *taskgraph.Graph) []string {
	var out []string
	for _, t := range g.Tasks {
		if t.IsGroup() && t.ControlUnit != "" && t.ControlUnit != policy.NameLocal {
			out = append(out, t.Name)
		}
	}
	return out
}

// Run executes the application: it validates the graph, plans the
// distribution of its control-unit-bearing group (at most one per run in
// this implementation), annotates the plan into the graph, and enacts it.
// With no distributable group — or none of the required peers — the graph
// runs locally, which is always correct because groups are semantically
// transparent.
func (c *Controller) Run(ctx context.Context, g *taskgraph.Graph, opts RunOptions) (*Report, error) {
	if opts.Iterations < 1 {
		return nil, fmt.Errorf("controller: Iterations must be >= 1")
	}
	if err := g.Validate(units.Resolver()); err != nil {
		return nil, err
	}
	annotated := g.Clone()

	groups := distributableGroups(annotated)
	if len(groups) > 1 {
		return nil, fmt.Errorf("controller: %d distributable groups; one per run is supported (nest or merge them)", len(groups))
	}

	if len(groups) == 0 || opts.ForceLocal {
		res, err := c.svc.RunLocal(ctx, annotated, engine.Options{
			Iterations: opts.Iterations, Seed: opts.Seed,
		})
		if err != nil {
			return nil, err
		}
		return &Report{
			Dist:      &service.DistResult{Local: res, Remote: map[string]map[string]int{}},
			Annotated: annotated,
		}, nil
	}

	groupName := groups[0]
	gt := annotated.Find(groupName)
	pol, err := policy.New(gt.ControlUnit)
	if err != nil {
		return nil, err
	}
	ads, _, err := c.candidateAdverts(opts)
	if err != nil {
		c.log("controller: discovery failed (%v); running locally", err)
	}
	peerRefs := c.candidates(ads, opts)
	ids := make([]string, len(peerRefs))
	byID := make(map[string]service.PeerRef, len(peerRefs))
	for i, p := range peerRefs {
		ids[i] = p.ID
		byID[p.ID] = p
	}
	// Discovery ranks by advertised CPU; live health observations trump
	// the brochure. Peers that have actually been failing sink, peers
	// behind an open breaker go last.
	usable, gated := c.svc.Health().Rank(ids)
	ids = append(usable, gated...)
	plan, err := pol.Plan(gt, ids)
	if err != nil {
		return nil, err
	}
	if err := policy.Annotate(annotated, groupName, plan); err != nil {
		return nil, err
	}
	c.log("controller: group %s planned as %s over %d peers", groupName, plan.Kind, len(ids))

	dist, err := c.svc.RunDistributed(ctx, annotated, groupName, plan, byID, service.DistOptions{
		Iterations: opts.Iterations,
		Seed:       opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	var used []string
	for id := range dist.Remote {
		used = append(used, id)
	}
	sort.Strings(used)
	return &Report{
		Dist: dist, Plan: plan, GroupName: groupName,
		Peers: used, Annotated: annotated,
	}, nil
}

// FarmOptions configures RunFarm: discovery filters for the worker
// pool plus the chunked-farm knobs forwarded to service.FarmChunks.
type FarmOptions struct {
	// Discovery filters candidate workers (Iterations is ignored).
	Discovery RunOptions
	// Body builds the farmed group body (one external input, one
	// external output). The farm calls it once and sends its encoding
	// with every attempt.
	Body func() *taskgraph.Graph
	// ChunkAttempts, Seed and AfterChunk forward to
	// service.FarmOptions.
	ChunkAttempts int
	Seed          int64
	AfterChunk    func(chunk int)
	// Speculate, SpeculateAfter and Quorum forward the
	// straggler-mitigation and untrusted-peer knobs to
	// service.FarmOptions.
	Speculate      bool
	SpeculateAfter time.Duration
	Quorum         int
	// Tenant names the submitting tenant: it charges the fair-share
	// admission queue and labels the despatch envelope, spans and
	// metrics. Empty means the default tenant.
	Tenant string
}

// RunFarm discovers workers and streams the chunks through them with
// the resilient re-despatch loop: a worker that dies mid-chunk loses
// that chunk to an alternate peer with the checkpointed state restored,
// so the committed output stream matches an uninterrupted run.
func (c *Controller) RunFarm(ctx context.Context, chunks [][]types.Data, opts FarmOptions) (*service.FarmReport, error) {
	tenant := opts.Tenant
	if tenant == "" {
		tenant = service.DefaultTenant
	}
	peers, group, members, err := c.farmCandidates(opts.Discovery)
	if err != nil {
		return nil, fmt.Errorf("controller: farm discovery: %w", err)
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("controller: no peers available for farm")
	}
	if group != "" {
		c.log("controller: farming %d chunks for tenant %s over group %s (%d members)",
			len(chunks), tenant, group, len(peers))
	} else {
		c.log("controller: farming %d chunks for tenant %s over %d peers", len(chunks), tenant, len(peers))
	}
	return c.svc.FarmChunks(ctx, chunks, service.FarmOptions{
		Body:           opts.Body,
		Peers:          peers,
		CodeAddr:       c.svc.Addr(),
		ChunkAttempts:  opts.ChunkAttempts,
		Seed:           opts.Seed,
		AfterChunk:     opts.AfterChunk,
		Speculate:      opts.Speculate,
		SpeculateAfter: opts.SpeculateAfter,
		Quorum:         opts.Quorum,
		Tenant:         tenant,
		Group:          group,
		GroupMembers:   members,
	})
}

// farmCandidates picks one farm's candidate set from candidateAdverts,
// ranked by candidates, so the farm's discovery filters hold. With a
// capability requirement, the group index over the same adverts
// resolves it to one capability group whose members become the
// candidates, and the farm commits to that group. No populated matching
// group falls back to the ungrouped path, counted on
// capgroup_fallback_total, so a momentarily empty group never fails a
// farm.
func (c *Controller) farmCandidates(opts RunOptions) (peers []service.PeerRef, group string, members map[string]bool, err error) {
	if len(opts.RequireCaps) > 0 {
		if key, refs, ok := c.matchGroup(opts); ok {
			members = make(map[string]bool, len(refs))
			for _, r := range refs {
				members[r.ID] = true
			}
			return refs, key, members, nil
		}
		capgroup.CountFallback()
		c.log("controller: no populated capability group matches %v; falling back to the whole pool", opts.RequireCaps)
		// The fallback deliberately drops the requirement: a pull query
		// still carrying the cap filters would find nothing either.
		opts.RequireCaps = nil
	}
	ads, _, err := c.candidateAdverts(opts)
	return c.candidates(ads, opts), "", nil, err
}

// matchGroup resolves opts.RequireCaps over candidateAdverts: through
// the pool's live group index when the adverts are the pool's, else
// through an index of the pulled adverts. The first group in
// best-populated-first match order with a candidate wins, its members
// ranked by candidates like any other list.
func (c *Controller) matchGroup(opts RunOptions) (string, []service.PeerRef, bool) {
	// A failed pull leaves the index empty: the caller falls back.
	ads, p, _ := c.candidateAdverts(opts)
	var idx *capgroup.Index
	if p != nil {
		idx = p.groups
	} else {
		idx = capgroup.NewIndex()
		for _, ad := range ads {
			idx.PutAdvert(ad)
		}
	}
	for _, key := range idx.MatchAll(opts.RequireCaps) {
		members := make(map[string]bool)
		for _, m := range idx.Members(key) {
			members[m.PeerID] = true
		}
		var in []*advert.Advertisement
		for _, ad := range ads {
			if members[ad.PeerID] {
				in = append(in, ad)
			}
		}
		if refs := c.candidates(in, opts); len(refs) > 0 {
			return key, refs, true
		}
	}
	return "", nil, false
}

func (c *Controller) log(format string, args ...any) {
	if c.logf != nil {
		c.logf(format, args...)
	}
}
