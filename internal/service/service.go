// Package service implements the Triana Service daemon of §3.2: "The
// Triana Service is comprised of three components: a client, a server and
// a command process server." In this implementation:
//
//   - the *server* component is the RPC surface (triana.run / wait /
//     status / cancel / ping) that accepts task-graph fragments, fetches
//     their module bundles on demand through the chunk tier, wires their
//     boundary connections to named pipes, and executes them in a
//     sandboxed engine via the local resource manager;
//   - the *client* component is the Distribute call used by whichever
//     peer drives an application — it ships subgraphs to other services
//     and bridges the local engine to the remote pipes;
//   - the *command process server* is the same RPC surface as used by the
//     Triana Controller, which "acts as a scheduling manager for the
//     complete application being run over a Triana network".
package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"consumergrid/internal/advert"
	"consumergrid/internal/capgroup"
	"consumergrid/internal/chunkstore"
	"consumergrid/internal/engine"
	"consumergrid/internal/frame"
	"consumergrid/internal/gateway"
	"consumergrid/internal/health"
	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/lifecycle"
	"consumergrid/internal/metrics"
	"consumergrid/internal/overlay"
	"consumergrid/internal/sandbox"
	"consumergrid/internal/taskgraph"
	"consumergrid/internal/trace"
	"consumergrid/internal/types"
	"consumergrid/internal/units"
)

// RPC method names of the Triana service protocol.
const (
	MethodRun    = "triana.run"
	MethodWait   = "triana.wait"
	MethodCancel = "triana.cancel"
	MethodPing   = "triana.ping"
)

// ServiceType is the advertised service name.
const ServiceType = "triana"

// Options configures a service daemon.
type Options struct {
	// PeerID identifies the peer; required.
	PeerID string
	// Transport and Addr place the daemon on the network. Addr "" lets
	// the transport choose (TCP port 0 / auto in-proc address).
	Transport jxtaserve.Transport
	Addr      string
	// Sandbox is the policy applied to hosted workflows; the zero value
	// is deny-all (compute only).
	Sandbox sandbox.Policy
	// RM launches jobs; nil defaults to a Fork manager.
	RM gateway.ResourceManager
	// CPUMHz and FreeRAMMB are the advertised capability attributes.
	CPUMHz, FreeRAMMB int
	// PeerGroup names the virtual peer group advertised.
	PeerGroup string
	// RequireCode, when set, refuses to execute a unit whose bundle is
	// not in the chunk store (strict mobile-code semantics) and the run
	// request names no codeAddr to fetch it from. A run that names one
	// fetches its missing bundles from there whether or not this is set.
	RequireCode bool
	// Certified, when non-empty, restricts execution to the listed unit
	// names — the paper's mitigation for hostile workloads: "allow users
	// to only download executables that are selected from a pre-agreed,
	// certified, software library" (§3.5).
	Certified []string
	// Resilience tunes outbound retries and deadlines; zero values
	// select defaults (see ResilienceOptions).
	Resilience ResilienceOptions
	// Health tunes the peer-health tracker (EWMA scoring + circuit
	// breakers) that orders farm and despatch candidates; zero values
	// select defaults (see health.Options). Owner and Registry are set
	// by the service.
	Health health.Options
	// MaxInflightDespatches bounds concurrent outbound despatch attempts
	// (default 64); a full budget blocks the next attempt until a slot
	// frees.
	MaxInflightDespatches int
	// Tenants seeds the fair-share admission scheduler with named
	// tenants and their weights (a tenant with weight 2 drains its
	// despatch backlog twice as fast as one with weight 1). Tenants not
	// listed here are admitted on first use at weight 1.
	Tenants map[string]int
	// Caps adds or overrides pairs in the peer's derived capability set
	// (trianad -caps): the set — unit-registry version, CPU class,
	// memory class, sandbox summary, plus these —
	// canonicalises into the peer's capability-group key, advertised
	// alongside the service advert so despatch can target "any member
	// of group G".
	Caps map[string]string
	// RequireCaps, set on a despatching peer, restricts farm candidates
	// to donors whose capability set carries every listed pair exactly
	// (trianad -require-caps). The controller resolves it to a group;
	// an empty or unknown group falls back to the whole pool.
	RequireCaps map[string]string
	// Overlay opts the daemon into the super-peer discovery overlay,
	// the only way a daemon discovers. Nil leaves the peer standalone:
	// it publishes nothing and discovers no one.
	Overlay *OverlayOptions
	// Wire tunes the one wire every service speaks: Transport is always
	// wrapped in the stream mux, so all traffic to a peer rides one
	// connection (binary v1 framed over TCP). Only Wire.Window is read.
	Wire jxtaserve.WireOptions
	// DataTier tunes the content-addressed chunk tier every daemon runs:
	// farm inputs travel as manifests — tiny datums by value, the rest
	// by digest, resolved through donor caches and ring replicas — and
	// are never streamed by the controller.
	DataTier DataTierOptions
	// StateDir, when set, enables crash-safe state: the billing ledger,
	// advert store, chunk-pin set, per-peer health state and resumable
	// farm journals are checkpointed to a versioned CRC-checked snapshot
	// in this directory (atomic rename, tolerant of torn writes) and
	// restored by New on the next start. Empty disables persistence.
	StateDir string
	// CheckpointInterval is the periodic checkpoint cadence when
	// StateDir is set (default 30s; negative disables the periodic
	// loop, leaving per-commit and on-drain/close checkpoints).
	CheckpointInterval time.Duration
	// Logf receives diagnostics; may be nil.
	Logf func(format string, args ...any)
}

// Service is a running daemon.
type Service struct {
	opts  Options
	host  *jxtaserve.Host
	muxT  *jxtaserve.MuxTransport
	rm    gateway.ResourceManager
	ownRM bool

	billing   *ledger
	certified map[string]bool // nil = everything allowed
	available atomic.Bool
	nextRunID atomic.Int64

	res ResilienceOptions // normalized copy of opts.Resilience
	// retryAfter times each retry's backoff sleep: time.After, which
	// TestRetryJitterReplaysAndIsLazy replaces to record the schedule
	// without sleeping it.
	retryAfter func(time.Duration) <-chan time.Time
	// resStats lives apart from the Service: the process registry binds
	// its counters, and an embedded value would pin every closed daemon.
	resStats *metrics.ResilienceStats
	health   *health.Tracker // live peer scores + circuit breakers
	admit    *admission      // bounded in-flight despatch budget

	overlay      *overlay.Client    // nil unless Options.Overlay set
	overlaySuper *overlay.SuperPeer // nil unless also a ring member

	chunks *chunkstore.Store // the data tier's chunk cache and pins

	codeMu   sync.Mutex
	codeHeld map[unitVersion]bool // bundles held as their owner (code.go)

	caps     capgroup.Set // derived capability set (see capgroup)
	groupKey string       // caps.Key(), fixed for the daemon's lifetime

	tracer *trace.Recorder // span recorder for despatch lifecycles
	bodies bodyMemo        // parsed triana.run bodies

	tenantFarmMu sync.Mutex
	tenantFarms  map[string]*tenantFarmStats // by tenant; see tenancy.go

	// Lifecycle: the daemon's state machine position, its single drain,
	// and the crash-safe checkpoint plumbing (see lifecycle.go and
	// checkpoint.go).
	lc           *lifecycle.Machine // lifecycle_state gauge included
	drains       drainState
	lcMetrics    lifecycleMetrics
	farms        *farmLedger // resumable farm journals
	checkpointMu sync.Mutex  // serialises snapshot writes

	// Goroutine ownership: every background goroutine the service spawns
	// (advertising, pipe bridges, output senders) registers
	// in bg and watches shutdown, so Close reliably reaps them — no
	// orphans accumulating over a daemon's lifetime.
	bg       sync.WaitGroup
	shutdown chan struct{}

	// Hosted jobs (see job and endedJob): live holds only jobs that
	// have not ended; an ended job leaves only its compact record, kept
	// in a FIFO bounded by maxEndedJobs, maxEndedPayloadBytes and
	// heldCap.
	// runHandlers counts triana.run handlers in flight, whose job is not
	// yet live (see enterRun).
	mu           sync.Mutex
	live         map[string]*job
	runHandlers  int
	ended        map[string]*endedJob
	endedQ       []*endedJob // oldest first
	endedPayload int         // payload bytes endedQ retains
	endedHeld    int         // output bytes endedQ's records hold in the chunk store
	nextJob      int
	closed       bool
	jobsHosted   *metrics.Counter // service_jobs_hosted_total{peer}
	jobsLive     *metrics.Gauge   // service_jobs_live{peer}
}

// goBG runs f as a service-owned goroutine tracked by the lifecycle
// WaitGroup. f must return when s.shutdown closes.
func (s *Service) goBG(f func()) {
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		f()
	}()
}

// Retention of ended hosted jobs. A wait that arrives after its job
// ended (a retried triana.wait) is answered from the job's record for
// as long as the record is kept; past that it gets "unknown job", which
// the chunk runner turns into a redespatch. Both bounds are per daemon:
// the count keeps a job for well over the wait's retry window at farm
// rates, and the byte cap bounds the checkpoint payloads stateful bulk
// bodies return. A third bound, heldCap, applies to the outputs the
// records hold in the chunk store for their controllers to fetch.
const (
	maxEndedJobs         = 256
	maxEndedPayloadBytes = 4 << 20
)

// job is a hosted job that has not ended. Ending it (endJob) replaces
// it with an endedJob, so nothing keeps its engine result, its unit
// instances or its handle once the job is over.
type job struct {
	id     string
	handle *gateway.Handle // set before the job joins Service.live
	ended  *endedJob       // set once, by endJob; guarded by Service.mu
	// The job's pipes, opened and bound by handleRun. A run closes its
	// inputs and its pump the outputs; a job that never runs is
	// abandoned instead.
	in  []*jxtaserve.InputPipe
	out []*jxtaserve.OutputPipe
}

func (j *job) closeIn() {
	for _, p := range j.in {
		p.Close()
	}
}

// abandon releases every pipe opened or bound so far: the cleanup of
// each path on which the job never runs.
func (j *job) abandon() {
	j.closeIn()
	for _, p := range j.out {
		p.Close()
	}
}

// endedJob is what a donor keeps of a job once it has ended: the
// answer to triana.wait, built once, and the figures Jobs reports.
type endedJob struct {
	id        string
	state     gateway.State
	processed int
	// err answers the wait when state is not Done; otherwise headers
	// and payload are the reply's, shared read-only by every wait.
	err     error
	headers map[string]string
	payload []byte
	// collected is set once a wait has been answered from the record,
	// and held is the result list whose outputs the record holds in the
	// chunk store until its controller cancels the ended job; both
	// guarded by Service.mu. A drain waits until every Done record is
	// collected and holds nothing.
	collected bool
	held      *resultList
}

// newEndedJob builds a job's record from how its run ended; res may
// be nil (a job cancelled before it ran, or a run that failed early).
// A farm job's results, when it has any, end the wait reply's payload,
// and the record takes over the list's holds.
func newEndedJob(id string, err error, res *engine.Result, results *resultList) *endedJob {
	rec := &endedJob{id: id, state: gateway.StateOf(err)}
	if rec.state != gateway.Done {
		// A job that did not finish reports no processed count: what
		// its engine processed need not have reached anyone.
		rec.err = err
		if results != nil {
			results.release()
		}
		return rec
	}
	if results != nil && results.held != nil {
		rec.held = results
	}
	rec.headers = map[string]string{"state": rec.state.String()}
	if res != nil {
		for task, n := range res.Processed {
			rec.processed += n
			rec.headers["proc."+task] = strconv.Itoa(n)
		}
		rec.headers["processed"] = strconv.Itoa(rec.processed)
		rec.headers["elapsedMicros"] = strconv.FormatInt(res.Elapsed.Microseconds(), 10)
		// Ship the stateful units' checkpoints back so the caller can
		// migrate the computation to another peer.
		var section []byte
		if results != nil {
			section = results.items
			rec.headers[jxtaserve.HeaderResults] = strconv.Itoa(results.n)
		}
		rec.payload = encodeRunPayload(nil, res.State, section)
	}
	return rec
}

// reply is a fresh wait reply over the record's shared headers and
// payload: the host stamps kind and stream on the message it sends.
func (e *endedJob) reply() (*jxtaserve.Message, error) {
	if e.err != nil {
		return nil, e.err
	}
	return &jxtaserve.Message{Headers: e.headers, Payload: e.payload}, nil
}

// endJob moves j from the live map to the ended FIFO, evicting the
// oldest records past either bound (the newest always stays). Only the
// first call for a job counts, and reports first; every call returns
// the job's record.
func (s *Service) endJob(j *job, err error, res *engine.Result, results *resultList) (rec *endedJob, first bool) {
	rec = newEndedJob(j.id, err, res, results)
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.ended != nil {
		if rec.held != nil {
			rec.held.release()
		}
		return j.ended, false
	}
	j.ended = rec
	delete(s.live, j.id)
	s.jobsLive.Set(float64(len(s.live)))
	s.ended[rec.id] = rec
	s.endedQ = append(s.endedQ, rec)
	s.endedPayload += len(rec.payload)
	if rec.held != nil {
		s.endedHeld += rec.held.heldBytes
	}
	for len(s.endedQ) > 1 && (len(s.endedQ) > maxEndedJobs || s.endedPayload > maxEndedPayloadBytes ||
		s.endedHeld > s.heldCap()) {
		old := s.endedQ[0]
		s.endedQ[0] = nil
		s.endedQ = s.endedQ[1:]
		s.endedPayload -= len(old.payload)
		s.dropHeldLocked(old)
		delete(s.ended, old.id)
	}
	return rec, true
}

// dropHeldLocked releases the outputs rec holds in the chunk store: its
// controller is done with them, or the record is leaving the FIFO.
// Callers hold s.mu.
func (s *Service) dropHeldLocked(rec *endedJob) {
	if rec.held != nil {
		s.endedHeld -= rec.held.heldBytes
		rec.held.release()
		rec.held = nil
	}
}

// settle returns the record of a job whose handle has finished. A job
// its run ended already has one (run ends the job before its handle
// finishes); a job cancelled before it ran gets one from the handle's
// error, and its pipes are released here since no run will.
func (s *Service) settle(j *job, err error) *endedJob {
	s.mu.Lock()
	rec := j.ended
	s.mu.Unlock()
	if rec != nil {
		return rec
	}
	rec, first := s.endJob(j, err, nil, nil)
	if first {
		j.abandon()
	}
	return rec
}

// New starts a service daemon.
func New(opts Options) (*Service, error) {
	if opts.PeerID == "" {
		return nil, fmt.Errorf("service: PeerID required")
	}
	if opts.Transport == nil {
		return nil, fmt.Errorf("service: Transport required")
	}
	muxT := jxtaserve.NewMux(opts.Transport, opts.Wire)
	host, err := jxtaserve.NewHost(opts.PeerID, muxT, opts.Addr)
	if err != nil {
		muxT.Close()
		return nil, err
	}
	s := &Service{
		opts:        opts,
		res:         opts.Resilience.withDefaults(),
		retryAfter:  time.After,
		resStats:    new(metrics.ResilienceStats),
		host:        host,
		muxT:        muxT,
		codeHeld:    make(map[unitVersion]bool),
		rm:          opts.RM,
		live:        make(map[string]*job),
		ended:       make(map[string]*endedJob),
		tenantFarms: make(map[string]*tenantFarmStats),
		billing:     newLedger(),
		tracer:      trace.Default(),
		shutdown:    make(chan struct{}),
		farms:       newFarmLedger(),
	}
	s.drains.done = make(chan struct{})
	s.lc = lifecycle.NewMachine(metrics.Default(), opts.PeerID)
	s.registerLifecycleMetrics()
	s.jobsHosted = metrics.Default().Counter(metrics.Series("service_jobs_hosted_total", "peer", opts.PeerID))
	s.jobsLive = metrics.Default().Gauge(metrics.Series("service_jobs_live", "peer", opts.PeerID))
	registerResilience(opts.PeerID, s.resStats)
	healthOpts := opts.Health
	healthOpts.Owner = opts.PeerID
	s.health = health.New(healthOpts)
	s.admit = newAdmission(opts.MaxInflightDespatches, opts.PeerID, opts.Tenants)
	if len(opts.Certified) > 0 {
		s.certified = make(map[string]bool, len(opts.Certified))
		for _, u := range opts.Certified {
			s.certified[u] = true
		}
	}
	s.available.Store(true)
	if s.rm == nil {
		s.rm = gateway.NewFork()
		s.ownRM = true
	}
	s.setupDataTier(opts.DataTier)
	// The capability identity is fixed at start: derived from the
	// profile (registry version, CPU/memory class, sandbox) plus
	// operator extras, and hashed into the group key the peer
	// advertises membership of.
	s.caps = capgroup.Derive(capgroup.Profile{
		CPUMHz:    opts.CPUMHz,
		FreeRAMMB: opts.FreeRAMMB,
		Sandbox:   opts.Sandbox,
		Extra:     opts.Caps,
	})
	s.groupKey = s.caps.Key()
	// A bootstrap super-peer may start with an empty ring list (it joins
	// its own address); clients need at least one super to talk to.
	if opts.Overlay != nil && (len(opts.Overlay.SuperPeers) > 0 || opts.Overlay.SuperPeer) {
		if err := s.setupOverlay(opts.Overlay); err != nil {
			host.Close()
			muxT.Close()
			return nil, err
		}
	}
	host.Handle(MethodRun, s.handleRun)
	host.Handle(MethodWait, s.handleWait)
	host.Handle(MethodCancel, s.handleCancel)
	host.Handle(MethodPing, s.handlePing)
	host.Handle(MethodBilling, s.handleBilling)
	host.Handle(MethodMetrics, s.handleMetrics)
	host.Handle(MethodTraces, s.handleTraces)
	host.Handle(MethodTenants, s.handleTenants)
	host.Handle(MethodGroups, s.handleGroups)
	host.Handle(MethodDrain, s.handleDrain)
	if opts.StateDir != "" {
		if err := s.restoreCheckpoint(); err != nil {
			s.Close()
			return nil, err
		}
		interval := opts.CheckpointInterval
		if interval == 0 {
			interval = defaultCheckpointInterval
		}
		if interval > 0 {
			s.goBG(func() {
				ticker := time.NewTicker(interval)
				defer ticker.Stop()
				for {
					select {
					case <-s.shutdown:
						return
					case <-ticker.C:
						if err := s.CheckpointNow(); err != nil {
							s.logf("service: %s periodic checkpoint: %v", opts.PeerID, err)
						}
					}
				}
			})
		}
	}
	s.lc.SetState(lifecycle.Running)
	return s, nil
}

// Host exposes the peer's pipe host.
func (s *Service) Host() *jxtaserve.Host { return s.host }

// Health exposes the live peer-health tracker: EWMA scores, latency
// quantiles and circuit breakers for every peer this service has
// despatched to. Its Rank orders every candidate list: the controller's
// plan, the farm runner and the overlay client's owner walk.
func (s *Service) Health() *health.Tracker { return s.health }

// Addr reports the daemon's dialable address.
func (s *Service) Addr() string { return s.host.Addr() }

// PeerID reports the peer identity.
func (s *Service) PeerID() string { return s.opts.PeerID }

// Close stops the daemon: no new jobs, running jobs cancelled, and every
// background goroutine the service owns (advertising, bridges) reaped
// before Close returns.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.shutdown)
	// Fail queued admission waiters with the closed outcome before the
	// transports go down, so no farm blocks on a slot that will never
	// free.
	s.admit.close()
	// Then let granted slots resolve before the ring is torn down: a
	// farm goroutine mid-despatch racing a vanished overlay produced
	// spurious shard-fallback warnings. Attempts either finish against
	// the still-live transports or fail fast once the wait expires.
	// Registered farms are not waited for: they can legitimately outlive
	// Close, and their next acquire fails with errAdmissionClosed.
	if !s.admit.await(2*time.Second, func(_, inflight int) bool { return inflight == 0 }) {
		s.logf("service: %s: closing with despatch attempts still in flight", s.opts.PeerID)
	}
	// On-shutdown checkpoint, after in-flight commits landed their
	// journal entries but before any state-holding component dies.
	if s.opts.StateDir != "" {
		if cerr := s.CheckpointNow(); cerr != nil {
			s.logf("service: %s: shutdown checkpoint: %v", s.opts.PeerID, cerr)
		}
	}
	if s.ownRM {
		s.rm.Close()
	}
	if s.overlay != nil {
		s.overlay.Close()
	}
	if s.overlaySuper != nil {
		s.overlaySuper.Close()
	}
	err := s.host.Close()
	// After the host: host.Close unblocks pipe readers, then the mux
	// kills the sessions those readers rode on.
	s.muxT.Close()
	s.bg.Wait()
	s.lc.SetState(lifecycle.Stopped)
	return err
}

func (s *Service) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// SetAvailable flips the donor's idle gate: the paper's Condor/SETI model
// where CPU is donated "when their workstation is idle i.e. when the
// screen saver turns on" (§3.7). While unavailable, new work is refused;
// running jobs are not interrupted (the owner's own processes simply
// compete, which the gateway models elsewhere).
func (s *Service) SetAvailable(available bool) { s.available.Store(available) }

// Available reports the current idle gate.
func (s *Service) Available() bool { return s.available.Load() }

// ServiceAdvert builds this peer's service advertisement.
func (s *Service) ServiceAdvert(ttl time.Duration) *advert.Advertisement {
	ad := &advert.Advertisement{
		Kind:   advert.KindService,
		ID:     "svc/" + s.opts.PeerID,
		PeerID: s.opts.PeerID,
		Name:   ServiceType,
		Addr:   s.Addr(),
	}
	ad.SetAttr(advert.AttrCPUMHz, strconv.Itoa(s.opts.CPUMHz))
	ad.SetAttr(advert.AttrFreeRAMMB, strconv.Itoa(s.opts.FreeRAMMB))
	if s.opts.PeerGroup != "" {
		ad.SetAttr(advert.AttrGroup, s.opts.PeerGroup)
	}
	// The capability set and its group key ride the same advert: it is
	// the peer's capability-group membership, so discovery filters
	// donors by capability and a group index reads membership from it.
	s.caps.Stamp(ad)
	if ttl > 0 {
		ad.Expires = time.Now().Add(ttl)
	}
	return ad
}

// Advertise publishes the peer's one advertisement, the service advert
// — the "enrol in the Triana environment" step, and with it the peer's
// capability-group membership — on the super-peer ring. A drain
// retracts it; otherwise it ages out with its TTL. A standalone peer
// has nowhere to publish, so it is a no-op there.
func (s *Service) Advertise(ttl time.Duration) error {
	if s.overlay == nil {
		return nil
	}
	if err := s.overlay.Publish(s.ServiceAdvert(ttl)); err != nil {
		return err
	}
	capgroup.CountPublish()
	return nil
}

// Discover runs a query on the super-peer ring and returns its answer,
// up to limit matches (limit <= 0 means unlimited). A standalone peer
// finds nothing.
func (s *Service) Discover(q advert.Query, limit int) ([]*advert.Advertisement, error) {
	if s.overlay == nil {
		return nil, nil
	}
	return s.overlay.Query(q, limit)
}

// StartAdvertising re-publishes the service advertisement (and so the
// peer's group membership) every interval with the given TTL, so the
// overlay ages out peers that vanish and keeps the live ones fresh. It returns a stop function. Publishing skips
// silently while the idle gate is closed, which lets busy machines fall
// out of discovery until they are donatable again.
func (s *Service) StartAdvertising(interval, ttl time.Duration) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	s.goBG(func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-s.shutdown:
				return
			case <-ticker.C:
				if !s.available.Load() || s.Draining() {
					// Busy or draining peers fall out of discovery as
					// their last advert's TTL expires.
					continue
				}
				if err := s.Advertise(ttl); err != nil {
					s.logf("service: re-advertise failed: %v", err)
				}
			}
		}
	})
	return func() { once.Do(func() { close(done) }) }
}

// RunLocal executes a full task graph on this peer, the "no local
// resource manager" path where the service itself launches the work.
func (s *Service) RunLocal(ctx context.Context, g *taskgraph.Graph, opts engine.Options) (*engine.Result, error) {
	if opts.Sandbox == nil {
		opts.Sandbox = sandbox.New(s.opts.Sandbox)
	}
	if opts.Logf == nil {
		opts.Logf = s.opts.Logf
	}
	return engine.Run(ctx, g, opts)
}

// JobInfo is one hosted job's externally visible state.
type JobInfo struct {
	ID        string
	State     gateway.State
	Processed int
}

// Jobs snapshots the daemon's live jobs plus the most recent ended
// ones (at most maxEndedJobs), sorted by ID — the data behind the §3.2
// browser progress view. Older ended jobs are forgotten.
func (s *Service) Jobs() []JobInfo {
	s.mu.Lock()
	out := make([]JobInfo, 0, len(s.live)+len(s.endedQ))
	for _, j := range s.live {
		out = append(out, JobInfo{ID: j.id, State: j.handle.State()})
	}
	for _, e := range s.endedQ {
		out = append(out, JobInfo{ID: e.id, State: e.state, Processed: e.processed})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// liveJobs counts the jobs accepted and not yet ended.
func (s *Service) liveJobs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.live)
}

// hostedWork counts what a drain waits for on the hosting side: live
// jobs and triana.run handlers still deciding whether to accept one.
func (s *Service) hostedWork() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.live) + s.runHandlers
}

// uncollected counts the retained records of Done jobs whose results
// their controller has not finished collecting: no wait has been
// answered from the record, or it still holds outputs it listed by
// address, which the controller may yet fetch.
func (s *Service) uncollected() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.endedQ {
		if e.state == gateway.Done && (!e.collected || e.held != nil) {
			n++
		}
	}
	return n
}

// enterRun admits a triana.run handler as hosted work from its first
// line, so a drain that quiesces triana.run while the handler fetches
// code or binds pipes waits for the job it may accept. The check and
// the count share s.mu with the drain's quiesce, so a handler either
// is counted before the quiesce or is refused by it.
func (s *Service) enterRun() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.host.Quiesced(MethodRun) {
		// The wire's own refusal, word for word.
		return fmt.Errorf("draining: %s refused at %s", MethodRun, s.opts.PeerID)
	}
	s.runHandlers++
	return nil
}

func (s *Service) exitRun() {
	s.mu.Lock()
	s.runHandlers--
	s.mu.Unlock()
}

// --- remote execution protocol ----------------------------------------------

// encodeRunPayload frames the triana.run request body: the graph XML
// plus an optional map of task-name -> checkpoint blob, enabling the
// §3.6.2 migration path ("a check-pointing mechanism may also be
// employed to migrate computation if necessary"). A non-nil last
// section follows the state: a farm request's manifest, which its
// inputs header announces, or a farm job's result list, which its wait
// reply's results header announces. A wait reply has no graph.
func encodeRunPayload(graphXML []byte, state map[string][]byte, last []byte) []byte {
	out := frame.AppendBytes(nil, graphXML)
	keys := make([]string, 0, len(state))
	for k := range state {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out = frame.AppendString(out, strconv.Itoa(len(keys)))
	for _, k := range keys {
		out = frame.AppendString(out, k)
		out = frame.AppendBytes(out, state[k])
	}
	if last != nil {
		out = frame.AppendBytes(out, last)
	}
	return out
}

var errStateOrder = errors.New("state keys not in strictly ascending order")

// decodeRunPayload is encodeRunPayload's canonical inverse: it reads
// the last section only when withLast says the payload has one, and it
// fails on anything the encoder would not have written — state keys out
// of order or repeated, or bytes left over — so every payload it
// accepts re-encodes to the same bytes.
func decodeRunPayload(p []byte, withLast bool) (graphXML []byte, state map[string][]byte, last []byte, err error) {
	r := frame.NewReader(p)
	graphXML = r.Bytes(len(p))
	if count := r.DecimalCount(2); count > 0 {
		state = make(map[string][]byte, count)
		for i, prev := 0, ""; i < count && r.Err() == nil; i++ {
			k := r.String(len(p))
			if i > 0 && k <= prev {
				r.Fail(errStateOrder)
			}
			state[k], prev = r.Bytes(len(p)), k
		}
	}
	if withLast {
		last = r.Bytes(len(p))
	}
	if err := r.Done(); err != nil {
		return nil, nil, nil, fmt.Errorf("service: run payload: %w", err)
	}
	return graphXML, state, last, nil
}

// Bounds of a Service's parsed-body memo: how many distinct bodies it
// holds, and the longest document it keeps. A farm despatches one body
// over and over, so a handful of entries covers every farm a donor
// serves at once.
const (
	maxParsedBodies   = 16
	maxParsedBodySize = 64 << 10
)

// bodyMemo maps exact body XML to its parsed, validated graph and the
// digests of its units' bundles, so a donor parses each distinct body
// and bundles its units once however often it is despatched. When full
// it starts over. A document that fails to parse is not kept.
type bodyMemo struct {
	mu     sync.Mutex
	bodies map[string]*parsedBody
}

type parsedBody struct {
	g    *taskgraph.Graph
	code []unitCode // shared, read-only
}

// parse returns a graph of the job's own, a clone of the memoised
// parse, and the body's code.
func (m *bodyMemo) parse(graphXML []byte) (*taskgraph.Graph, []unitCode, error) {
	m.mu.Lock()
	b, ok := m.bodies[string(graphXML)]
	m.mu.Unlock()
	if !ok {
		g, err := taskgraph.ParseXML(graphXML)
		if err != nil {
			return nil, nil, err
		}
		b = &parsedBody{g: g, code: bodyCode(g, nil)}
		if len(graphXML) > maxParsedBodySize {
			return g, b.code, nil
		}
		m.mu.Lock()
		if m.bodies == nil || len(m.bodies) >= maxParsedBodies {
			m.bodies = make(map[string]*parsedBody, maxParsedBodies)
		}
		m.bodies[string(graphXML)] = b
		m.mu.Unlock()
	}
	return b.g.Clone(), b.code, nil
}

func (s *Service) handleRun(req *jxtaserve.Message) (*jxtaserve.Message, error) {
	if err := s.enterRun(); err != nil {
		return nil, err
	}
	defer s.exitRun()
	graphXML, restoreState, manifest, err := decodeRunPayload(req.Payload, req.Header(hdrInputs) == inputsManifest)
	if err != nil {
		return nil, err
	}
	g, code, err := s.bodies.parse(graphXML)
	if err != nil {
		return nil, err
	}
	if !s.available.Load() {
		return nil, fmt.Errorf("service: peer %s is busy (owner active)", s.opts.PeerID)
	}
	iterations, _ := strconv.Atoi(req.Header("iterations"))
	if iterations < 1 {
		iterations = 1
	}
	seed, _ := strconv.ParseInt(req.Header("seed"), 10, 64)
	requester := req.Header("from")
	tenant := req.Header("tenant")
	if tenant == "" {
		tenant = DefaultTenant
	}
	// Adopt the caller's trace so the hosting peer's spans land in the
	// same tree as the despatching peer's (IDs travel in the envelope).
	traceID, parentSpan := trace.Extract(req.Header)

	// Certified-library policy first: a non-certified unit is rejected
	// before any code transfer happens (§3.5).
	if s.certified != nil {
		for _, c := range code {
			if !s.certified[c.unit] {
				return nil, fmt.Errorf("service: unit %s is not in %s's certified library", c.unit, s.opts.PeerID)
			}
		}
	}

	// On-demand code download: fetch every missing module from the
	// owner before execution (§3: dynamic download of code).
	if codeAddr := req.Header("codeAddr"); codeAddr != "" || s.opts.RequireCode {
		if err := s.ensureCode(code, codeAddr); err != nil {
			return nil, err
		}
	}

	// Open input pipes for the graph's external inputs, named by the
	// boundary connection labels supplied in the request — unless the
	// request carries a manifest, which makes it a farm part: the job
	// resolves its one input itself, its one output's items ride the
	// wait reply, and no pipe is opened or bound.
	nIn, _ := strconv.Atoi(req.Header("in.count"))
	if nIn != len(g.ExternalIn) {
		return nil, fmt.Errorf("service: request declares %d inputs, graph has %d",
			nIn, len(g.ExternalIn))
	}
	nOut, _ := strconv.Atoi(req.Header("out.count"))
	if nOut != len(g.ExternalOut) {
		return nil, fmt.Errorf("service: request declares %d outputs, graph has %d",
			nOut, len(g.ExternalOut))
	}
	if manifest != nil && (nIn != 1 || nOut != 1) {
		return nil, fmt.Errorf("service: a manifest needs a one-input body with one output, request declares %d inputs and %d outputs",
			nIn, nOut)
	}
	extIn := make(map[int]<-chan types.Data, nIn)
	j := &job{}
	var inAds []*advert.Advertisement
	for i := 0; i < nIn && manifest == nil; i++ {
		label := req.Header(fmt.Sprintf("in.%d.label", i))
		if label == "" {
			j.abandon()
			return nil, fmt.Errorf("service: input %d has no label", i)
		}
		pipe, ad, err := s.host.OpenInput(label, 8)
		if err != nil {
			j.abandon()
			return nil, err
		}
		eofs, _ := strconv.Atoi(req.Header(fmt.Sprintf("in.%d.eofs", i)))
		if eofs <= 0 {
			eofs = 1
		}
		pipe.ExpectEOFs(eofs)
		j.in = append(j.in, pipe)
		inAds = append(inAds, ad)
		extIn[i] = pipe.C
	}

	// Bind output pipes to the supplied downstream targets, or for a farm
	// part collect the one output into the wait reply's result list.
	extOut := make(map[int]chan<- types.Data, nOut)
	var outChans []chan types.Data
	for i := 0; i < nOut; i++ {
		ch := make(chan types.Data, 8)
		outChans = append(outChans, ch)
		extOut[i] = ch
		if manifest != nil {
			continue
		}
		label := req.Header(fmt.Sprintf("out.%d.label", i))
		addr := req.Header(fmt.Sprintf("out.%d.addr", i))
		if label == "" || addr == "" {
			j.abandon()
			return nil, fmt.Errorf("service: output %d missing label/addr", i)
		}
		target := &advert.Advertisement{
			Kind: advert.KindPipe, ID: "target/" + label,
			PeerID: req.Header("from"), Name: label, Addr: addr,
		}
		op, err := s.host.BindOutput(target)
		if err != nil {
			j.abandon()
			return nil, fmt.Errorf("service: binding output %d (%s): %w", i, label, err)
		}
		j.out = append(j.out, op)
	}
	// The reply is encoded before the job starts, so a failure here
	// leaves no job running that no controller will wait for.
	adsPayload, err := advert.EncodeList(inAds)
	if err != nil {
		j.abandon()
		return nil, err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		j.abandon()
		return nil, fmt.Errorf("service: %s is shutting down", s.opts.PeerID)
	}
	s.nextJob++
	id := fmt.Sprintf("%s/job-%d", s.opts.PeerID, s.nextJob)
	s.mu.Unlock()
	j.id = id

	run := func(ctx context.Context) error {
		span := s.tracer.Start(traceID, parentSpan, "execute", s.opts.PeerID)
		span.SetAttr("job", id)
		span.SetAttr("tenant", tenant)
		defer span.End()
		var err error
		var results *resultList
		senders := newPipePump()
		if manifest != nil {
			extIn[0], err = s.manifestInput(ctx, manifest, span)
			results = s.newResultList()
			senders.fill(outChans[0], results)
		} else {
			for i, ch := range outChans {
				senders.forward(ch, j.out[i:i+1])
			}
		}
		var res *engine.Result
		if err == nil {
			res, err = engine.Run(ctx, g, engine.Options{
				Iterations:   iterations,
				Seed:         seed,
				Sandbox:      sandbox.New(s.opts.Sandbox),
				Logf:         s.opts.Logf,
				ExternalIn:   extIn,
				ExternalOut:  extOut,
				RestoreState: restoreState,
				Trace:        s.tracer,
				TraceID:      span.TraceID(),
				TraceParent:  span.SpanID(),
			})
		}
		sendErr := senders.stop() // closes the output pipes, fills results
		j.closeIn()
		if err == nil {
			err = sendErr
		}
		if ctx.Err() != nil {
			// Cancelled, however the run noticed: a cancel landing while
			// outputs drain surfaces as the pump's send error.
			err = ctx.Err()
		}
		span.Fail(err)
		if res != nil {
			total := 0
			for _, n := range res.Processed {
				total += n
			}
			span.SetAttr("processed", strconv.Itoa(total))
			s.billing.record(requester, res.Elapsed, total)
		}
		// The job ends here, before its handle finishes: a wait woken
		// by the handle finds the record already built.
		s.endJob(j, err, res, results)
		return err
	}
	handle, err := s.rm.Submit(gateway.Job{ID: id, Run: run})
	if err != nil {
		j.abandon()
		return nil, err
	}
	s.mu.Lock()
	j.handle = handle
	if j.ended == nil { // a run that already ended must not rejoin live
		s.live[id] = j
		s.jobsLive.Set(float64(len(s.live)))
	}
	s.mu.Unlock()
	s.jobsHosted.Inc()

	reply := &jxtaserve.Message{Payload: adsPayload}
	reply.SetHeader("job", id)
	return reply, nil
}

// findJob looks a job up: a live job, or the record of a retained
// ended one.
func (s *Service) findJob(id string) (*job, *endedJob, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.live[id]; ok {
		return j, nil, nil
	}
	if e, ok := s.ended[id]; ok {
		return nil, e, nil
	}
	return nil, nil, fmt.Errorf("service: unknown job %q", id)
}

// handleWait blocks until the job ends and answers from its record, so
// every wait for the same job — a retry included — gets the same reply.
func (s *Service) handleWait(req *jxtaserve.Message) (*jxtaserve.Message, error) {
	j, rec, err := s.findJob(req.Header("job"))
	if err != nil {
		return nil, err
	}
	if j != nil {
		rec = s.settle(j, j.handle.Wait())
	}
	s.mu.Lock()
	rec.collected = true
	s.mu.Unlock()
	return rec.reply()
}

// handleCancel cancels a live job. Cancelling an ended one releases
// the outputs its record holds: the controller is done with them.
func (s *Service) handleCancel(req *jxtaserve.Message) (*jxtaserve.Message, error) {
	j, rec, err := s.findJob(req.Header("job"))
	if err != nil {
		return nil, err
	}
	if rec != nil {
		s.mu.Lock()
		s.dropHeldLocked(rec)
		s.mu.Unlock()
	}
	if j != nil {
		j.handle.Cancel()
		// A job cancelled before it ran never reaches its run's end.
		if j.handle.State().Terminal() {
			s.settle(j, j.handle.Wait())
		}
	}
	return &jxtaserve.Message{}, nil
}

func (s *Service) handlePing(req *jxtaserve.Message) (*jxtaserve.Message, error) {
	reply := &jxtaserve.Message{}
	reply.SetHeader("peer", s.opts.PeerID)
	reply.SetHeader("rm", s.rm.Name())
	reply.SetHeader("cpuMHz", strconv.Itoa(s.opts.CPUMHz))
	reply.SetHeader("freeRAMMB", strconv.Itoa(s.opts.FreeRAMMB))
	reply.SetHeader("units", strconv.Itoa(len(units.Names())))
	return reply, nil
}
