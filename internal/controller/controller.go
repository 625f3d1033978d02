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
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
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

	// farmSeq numbers farm submissions; with the tenant it forms the
	// key that places each farm on a donor-pool shard.
	farmSeq atomic.Int64

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
	// -require-caps). RunFarm resolves it through the donor pool's
	// group index to one capability group — despatch, speculation and
	// quorum then stay inside that group — while an empty or unknown
	// group falls back to the health-ranked whole pool, counted on
	// capgroup_fallback_total. Pull-path discovery filters service
	// adverts by the same pairs.
	RequireCaps map[string]string
	// MaxPeers bounds the candidate list (0 = unbounded).
	MaxPeers int
	// ForceLocal skips discovery and runs everything in-process.
	ForceLocal bool
	// PoolShards forces the donor-pool shard count. 0 derives one shard
	// per overlay ring member (shard ownership then agrees with advert
	// placement); explicit values suit tests and grids with few supers.
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
// excluding this controller's own peer. Results are sorted by descending
// advertised CPU so the policy gets the strongest peers first.
func (c *Controller) DiscoverPeers(opts RunOptions) ([]service.PeerRef, error) {
	ads, err := c.svc.Discovery().Discover(discoveryQuery(opts), 0)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(ads, func(i, j int) bool {
		ci, _ := strconv.ParseFloat(ads[i].Attr(advert.AttrCPUMHz), 64)
		cj, _ := strconv.ParseFloat(ads[j].Attr(advert.AttrCPUMHz), 64)
		if ci != cj {
			return ci > cj
		}
		return ads[i].PeerID < ads[j].PeerID
	})
	var peers []service.PeerRef
	for _, ad := range ads {
		if ad.PeerID == c.svc.PeerID() {
			continue
		}
		peers = append(peers, service.PeerRef{ID: ad.PeerID, Addr: ad.Addr})
		if opts.MaxPeers > 0 && len(peers) >= opts.MaxPeers {
			break
		}
	}
	return peers, nil
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
	peerRefs, err := c.DiscoverPeers(opts)
	if err != nil {
		c.log("controller: discovery failed (%v); running locally", err)
		peerRefs = nil
	}
	ids := make([]string, len(peerRefs))
	byID := make(map[string]service.PeerRef, len(peerRefs))
	for i, p := range peerRefs {
		ids[i] = p.ID
		byID[p.ID] = p
	}
	// Discovery ranks by advertised CPU; live health observations trump
	// the brochure. Peers that have actually been failing sink, peers
	// behind an open breaker go last.
	ids = policy.OrderByHealth(ids, c.svc.Health())
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
	// external output) — fresh per attempt.
	Body func() *taskgraph.Graph
	// ChunkAttempts, AttemptTimeout, InitialState, Heartbeat, Seed and
	// AfterChunk forward to service.FarmOptions.
	ChunkAttempts  int
	AttemptTimeout time.Duration
	InitialState   map[string][]byte
	Heartbeat      bool
	Seed           int64
	AfterChunk     func(chunk int)
	// Speculate, SpeculateAfter, StragglerFactor, MaxSpeculative and
	// Quorum forward the straggler-mitigation and untrusted-peer knobs
	// to service.FarmOptions.
	Speculate       bool
	SpeculateAfter  time.Duration
	StragglerFactor float64
	MaxSpeculative  int
	Quorum          int
	// Tenant names the submitting tenant: it picks the farm's donor-pool
	// shard, charges the fair-share admission queue, and labels the
	// despatch envelope, spans and metrics. Empty means the default
	// tenant.
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
	// A running donor pool already holds push-maintained candidates, so
	// the per-farm discovery round trip is skipped entirely: the farm's
	// (tenant, sequence) key hashes onto one pool shard, whose donors
	// become the candidate set — selection, ranking and despatch then
	// run shard-locally. An empty pool (or no pool) falls back to a
	// pull query.
	farmKey := fmt.Sprintf("tenant/%s/farm/%d", tenant, c.farmSeq.Add(1))
	peers, group, members, err := c.farmCandidates(farmKey, opts.Discovery, opts.Quorum)
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
		Body:            opts.Body,
		Peers:           peers,
		CodeAddr:        c.svc.Addr(),
		ChunkAttempts:   opts.ChunkAttempts,
		AttemptTimeout:  opts.AttemptTimeout,
		InitialState:    opts.InitialState,
		Heartbeat:       opts.Heartbeat,
		Seed:            opts.Seed,
		AfterChunk:      opts.AfterChunk,
		Speculate:       opts.Speculate,
		SpeculateAfter:  opts.SpeculateAfter,
		StragglerFactor: opts.StragglerFactor,
		MaxSpeculative:  opts.MaxSpeculative,
		Quorum:          opts.Quorum,
		Tenant:          tenant,
		Group:           group,
		GroupMembers:    members,
	})
}

// farmCandidates picks one farm's candidate set. With a capability
// requirement, the group index — the donor pool's live one or,
// poolless, a transient one built from a pull query over group adverts
// — resolves it to one capability group whose members become the
// candidates, and the farm commits to that group. No populated
// matching group falls back to the ungrouped path, counted on
// capgroup_fallback_total, so a momentarily empty group never fails a
// farm. Without a requirement: the farm's pool shard when it can seat
// the farm's quorum, else the whole pool, else a pull query.
func (c *Controller) farmCandidates(farmKey string, opts RunOptions, quorum int) (peers []service.PeerRef, group string, members map[string]bool, err error) {
	if len(opts.RequireCaps) > 0 {
		if key, refs, ok := matchGroup(c.groupIndex(), c.svc.PeerID(), opts.RequireCaps); ok {
			refs = capPeers(refs, opts.MaxPeers)
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
	peers = c.pooledShardPeers(opts.MaxPeers, farmKey, max(1, quorum))
	if peers == nil {
		peers, err = c.DiscoverPeers(opts)
	}
	return peers, "", nil, err
}

// groupIndex is where group requirements resolve: the pool's live
// membership index, or for a controller without a running pool a
// transient one built from a pull query over group adverts (it never
// touches the pool's gauges).
func (c *Controller) groupIndex() *capgroup.Index {
	c.mu.Lock()
	p := c.pool
	c.mu.Unlock()
	if p != nil {
		return p.groups
	}
	idx := capgroup.NewIndex()
	ads, err := c.svc.Discovery().Discover(advert.Query{Kind: advert.KindGroup}, 0)
	if err != nil {
		c.log("controller: group discovery failed: %v", err)
		return idx
	}
	for _, ad := range ads {
		caps, key, ok := capgroup.FromAdvert(ad)
		if !ok {
			continue
		}
		cpu, _ := strconv.ParseFloat(ad.Attr(advert.AttrCPUMHz), 64)
		idx.Put(key, caps, capgroup.Member{PeerID: ad.PeerID, Addr: ad.Addr, CPUMHz: cpu})
	}
	return idx
}

// pooledShardPeers snapshots the shard owning key when it holds at
// least need donors (the whole pool otherwise), capped to max when
// positive. Nil when no pool is running or no donor is known anywhere,
// signalling the caller to fall back to a pull query.
func (c *Controller) pooledShardPeers(max int, key string, need int) []service.PeerRef {
	c.mu.Lock()
	p := c.pool
	c.mu.Unlock()
	if p == nil {
		return nil
	}
	return capPeers(p.shardPeers(key, need), max)
}

func capPeers(peers []service.PeerRef, max int) []service.PeerRef {
	if len(peers) == 0 {
		return nil
	}
	if max > 0 && len(peers) > max {
		peers = peers[:max]
	}
	return peers
}

func (c *Controller) log(format string, args ...any) {
	if c.logf != nil {
		c.logf(format, args...)
	}
}
