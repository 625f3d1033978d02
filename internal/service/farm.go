// Chunked resilient farming: one chunk runner over the §3.6.2
// checkpointed re-despatch path — the untrusted-consumer-peer layer.
// Plain, speculative and quorum farming are parameter values of one
// decision core (an electorate of K = max(1, Quorum) voters, and a
// backup policy), not separate loops. The core's rules are stated once,
// at chunkCore.step (chunkstep.go); this file is its shell, which runs the
// core's actions and feeds it events.
//
// A farmRun holds what is constant across a farm's chunks; a chunkRun
// is one chunk's shell around its core.
//
// Selection: candidates are ranked by the live health tracker (EWMA
// success score, then observed latency). Open-breaker peers are
// skipped; a peer declared dead whose cooldown has elapsed is pinged
// before it gets real work. A committed capability group narrows the
// candidates up front; nothing ever votes from outside it.
//
// Despatch: an attempt is one triana.run request carrying the body,
// encoded once per farm, the carried state and the chunk's manifest,
// then one triana.wait. The donor resolves the chunk itself
// (datatier.go), and the wait reply brings the job's outputs home as a
// result list (quorum.go): an output of at most chunkstore.MaxInline
// bytes by value, any other as its raw content address, its bytes held
// in the donor's chunk store. The attempt opens no pipe: data moves out
// in the request and back in the reply. With Speculate, the straggler
// timer is the peer's observed p90 attempt latency × stragglerFactor,
// or SpeculateAfter before history exists.
//
// Ballot: every clean full-length result is a ballot. Its digest
// hashes the per-output content addresses (the SHA-256 of the
// types.Marshal bytes, which the chunk store names in hex) plus the
// sorted state frames, so a by-value and a by-reference ballot of the
// same result compare equal. The controller hashes by-value bytes
// itself; it never takes a digest a donor claims for bytes it was sent.
//
// Commit: the winner's by-value items are decoded and committed as
// they came. Each by-reference item is fetched through
// chunkstore.FetchThrough, the agreeing voters as peer rungs — the
// fetch checks the bytes against their address, and the controller
// keeps no copy — then decoded and committed, counting
// service_quorum_fetches_total. Dropping a ballot is one unretried
// triana.cancel of its ended job, which releases the donor's holds.
// Cancelled attempts are reaped before FarmChunks returns.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"consumergrid/internal/capgroup"
	"consumergrid/internal/chunkstore"
	"consumergrid/internal/taskgraph"
	"consumergrid/internal/types"
)

// ErrNoQuorumCapacity reports a quorum farm that could not assemble —
// or widen — its electorate without drawing voters from outside the
// committed capability group. Out-of-group candidates are skipped, not
// mixed in: their results would carry incomparable digests. Callers
// distinguish it from ordinary attempt exhaustion with errors.Is.
var ErrNoQuorumCapacity = errors.New("no quorum capacity within capability group")

// FarmOptions configures FarmChunks.
type FarmOptions struct {
	// Body builds the group body to despatch, with exactly one external
	// input and one external output; FarmChunks refuses any other shape
	// before it despatches anything. It calls Body once per farm and
	// encodes the graph once: every attempt sends the same bytes.
	Body func() *taskgraph.Graph
	// Peers are the candidate workers. Selection orders them by live
	// health (score, then latency); the listed order only breaks ties
	// among peers with no history.
	Peers []PeerRef
	// CodeAddr is the module owner remote peers fetch from ("" disables).
	CodeAddr string
	// ChunkAttempts bounds despatch attempts per chunk (default
	// 2×len(Peers), minimum MaxAttempts).
	ChunkAttempts int
	// Seed is passed to every despatched part.
	Seed int64
	// AfterChunk, if set, runs after each chunk commits — a test hook for
	// injecting faults at deterministic points.
	AfterChunk func(chunk int)

	// Speculate enables the straggler detector: an attempt running past
	// the threshold launches a backup on the next-healthiest peer.
	Speculate bool
	// SpeculateAfter is the straggler threshold before the peer has
	// latency history (default 2s).
	SpeculateAfter time.Duration
	// Quorum, when > 1, commits each chunk only on a result digest a
	// majority (Quorum/2+1) of Quorum voters agree on. It despatches to
	// that majority first and adds one voter at a time only when they
	// disagree or fail. Overrides Speculate for the chunk's launch
	// strategy.
	Quorum int

	// Tenant names the submitting tenant: admission slots are charged to
	// its fair-share queue, the identity rides every despatch envelope,
	// and the farm's committed chunks and egress bytes (manifests and
	// ring write-through) land on
	// tenant-labelled series. Controller-direct serves of pinned chunks
	// stay on the service series only: a pin can be shared by several
	// farms. Empty means DefaultTenant.
	Tenant string

	// Group, when set, commits the farm to one capability group: only
	// peers listed in GroupMembers are eligible for first despatch,
	// failover, speculation or quorum ballots, so every voter's result
	// digest comes from an interchangeable donor. A quorum that cannot
	// reach majority without leaving the group ends with
	// ErrNoQuorumCapacity instead of silently mixing groups. The group
	// key also rides every despatched part's span.
	Group string
	// GroupMembers is the member peer-ID set of Group; required when
	// Group is set.
	GroupMembers map[string]bool

	// ResumeKey names this farm in the daemon's crash-safe farm ledger.
	// With Options.StateDir set, every chunk commit journals its outputs
	// and carried state to the checkpoint; a restarted daemon running the
	// same farm (same ResumeKey, same chunks, same Body) skips the
	// committed prefix and replays its recorded outputs byte for byte,
	// so the resumed output stream equals an uninterrupted run's and no
	// committed chunk is despatched — or billed — twice. Empty disables
	// journaling for this farm.
	ResumeKey string
}

func (o FarmOptions) withFarmDefaults(res ResilienceOptions) FarmOptions {
	if o.ChunkAttempts <= 0 {
		o.ChunkAttempts = 2 * len(o.Peers)
		if o.ChunkAttempts < res.MaxAttempts {
			o.ChunkAttempts = res.MaxAttempts
		}
	}
	if o.SpeculateAfter <= 0 {
		o.SpeculateAfter = 2 * time.Second
	}
	if o.Tenant == "" {
		o.Tenant = DefaultTenant
	}
	return o
}

// FarmReport summarises a FarmChunks run.
type FarmReport struct {
	// Outputs are the committed sink outputs, in chunk order.
	Outputs []types.Data
	// FinalState is the checkpoint after the last chunk.
	FinalState map[string][]byte
	// Redespatches counts non-speculative chunk attempts beyond each
	// chunk's first electorate (one attempt, or a quorum's majority):
	// replacements for failed attempts and voters widening a dissenting
	// vote.
	Redespatches int64
	// WastedOutputs counts outputs discarded from failed, abandoned or
	// outvoted attempts.
	WastedOutputs int64
	// PeerChunks maps peer ID to committed chunk count.
	PeerChunks map[string]int

	// SpeculationLaunches counts backup attempts started past the
	// straggler threshold; SpeculationWins counts races a backup won;
	// SpeculationWaste counts outputs discarded because a racing
	// sibling committed first.
	SpeculationLaunches int64
	SpeculationWins     int64
	SpeculationWaste    int64
	// QuorumDisagreements counts quorum votes where a peer's result
	// digest disagreed with the committed majority.
	QuorumDisagreements int64
	// ResumedChunks counts chunks skipped because a restored journal
	// (FarmOptions.ResumeKey) had already committed them in a previous
	// process; their outputs were replayed, not recomputed.
	ResumedChunks int
}

// stragglerRetry is how soon a fired-but-skipped straggler timer is
// re-armed: the backup launch was blocked (no admission slot, no free
// peer), not rejected, so the detector keeps watching.
const stragglerRetry = 25 * time.Millisecond

// probeTimeout bounds the unretried one-shot RPCs: the ping that probes
// a peer once declared dead, the cancel that releases a ballot's holds,
// and the last wait that reads a cancelled job's record.
const probeTimeout = time.Second

// stragglerFactor scales a peer's observed p90 attempt latency into its
// straggler threshold.
const stragglerFactor = 2.0

// farmRun is what stays constant across one farm's chunks.
type farmRun struct {
	s    *Service
	opts FarmOptions
	id   int64
	// majority is both the agreeing ballots a chunk needs to commit and
	// the size of its first electorate: max(1, Quorum)/2+1. Plain and
	// speculative farming are majority == 1.
	majority int

	// body and bodyXML are opts.Body() and its encoding, made once per
	// farm; manifests holds every chunk's manifest entries; tstats
	// caches the tenant's farm series.
	body      *taskgraph.Graph
	bodyXML   []byte
	manifests *farmManifests
	tstats    *tenantFarmStats

	// ids and byID are the eligible candidates — the group-filtered
	// subset of opts.Peers (all of them when no group is committed) —
	// in the shape selection ranks, built once per farm.
	ids  []string
	byID map[string]PeerRef

	report *FarmReport
	// losers reaps abandoned racing attempts: they are cancelled, keep
	// running until the cancel lands, and must be accounted (waste,
	// admission slots) before the farm returns.
	losers sync.WaitGroup
	// wasted and specWaste are the report's waste counts while reapers
	// may still add to them; FarmChunks copies them into the report once
	// the losers are reaped. atomic.Int64 stays 8-byte aligned on 32-bit
	// platforms, where the report's plain int64 fields need not be.
	wasted, specWaste atomic.Int64
}

// chunkRun is one chunk's shell around its core: what the shell keeps
// of each attempt, indexed as the core's table, and the chunk's timer.
type chunkRun struct {
	*farmRun
	ctx   context.Context
	c     int
	chunk []types.Data
	state map[string][]byte

	core     chunkCore
	results  chan farmResult
	attempts []farmAttempt
	lastErr  error // the most recent failed attempt's error
	doneErr  error // why the chunk's context or admission ended it
	won      int   // the committed attempt
	err      error // the chunk's failure
	reap     bool  // cancelled attempts are still running

	straggler *time.Timer
}

// farmAttempt is the shell's record of one launched attempt. The ballot
// fields are set once it voted: a clean, full-length result; got holds
// the decoded outputs once the ballot commits.
type farmAttempt struct {
	peer   PeerRef
	cancel context.CancelFunc
	start  time.Time

	job      *RemoteJob
	items    []resultItem
	newState map[string][]byte
	elapsed  time.Duration
	got      []types.Data
}

// farmResult is one attempt's terminal report, delivered on the chunk
// coordinator's results channel.
type farmResult struct {
	idx      int
	job      *RemoteJob // nil if the despatch failed
	items    []resultItem
	newState map[string][]byte
	err      error
}

// FarmChunks streams chunks of work through the body on the given
// peers, surviving peer failure: each chunk is one despatch carrying
// the checkpoint state of everything committed so far, and a failed
// attempt is re-despatched to the next-healthiest peer with that same
// state, so the replay recomputes the chunk exactly and the committed
// output stream equals an uninterrupted run's. Outputs of failed
// attempts are discarded (counted as wasted work); a chunk commits only
// when its attempt returned cleanly and produced one output per input —
// or, under Quorum, when a majority of attempts agree on the result
// digest. Every speculative or outvoted loser is cancelled remotely and
// reaped before FarmChunks returns.
func (s *Service) FarmChunks(ctx context.Context, chunks [][]types.Data, opts FarmOptions) (*FarmReport, error) {
	if opts.Body == nil {
		return nil, fmt.Errorf("service: FarmChunks needs a Body")
	}
	if len(opts.Peers) == 0 {
		return nil, fmt.Errorf("service: FarmChunks needs at least one peer")
	}
	if opts.Quorum > len(opts.Peers) {
		// One peer, one vote. The first electorate is only a majority,
		// Quorum/2+1, but a dissenting or split vote widens one fresh
		// voter at a time and may need all Quorum distinct voters to
		// reach that majority, so reject the configuration up front
		// instead of letting a contested chunk discover it.
		return nil, fmt.Errorf("service: FarmChunks Quorum %d exceeds %d peers — majority unreachable",
			opts.Quorum, len(opts.Peers))
	}
	fr := &farmRun{
		s:        s,
		majority: max(1, opts.Quorum)/2 + 1,
		report:   &FarmReport{PeerChunks: make(map[string]int)},
	}
	// A quorum that cannot seat its electorate inside the group fails
	// fast, same reasoning as the peer-count check above.
	fr.ids, fr.byID = eligible(opts.Peers, opts.Group, opts.GroupMembers)
	if len(fr.ids) == 0 {
		return nil, fmt.Errorf("service: FarmChunks committed to group %s but no candidate peer is a member",
			opts.Group)
	}
	if opts.Quorum > len(fr.ids) {
		capgroup.CountQuorumCapacity()
		return nil, fmt.Errorf("service: FarmChunks Quorum %d exceeds the %d members of group %s: %w",
			opts.Quorum, len(fr.ids), opts.Group, ErrNoQuorumCapacity)
	}
	// The body's shape is checked before anything is admitted or
	// despatched: a wrong shape would fail every attempt locally and
	// blame healthy donors for it.
	fr.body = opts.Body()
	if len(fr.body.ExternalIn) != 1 || len(fr.body.ExternalOut) != 1 {
		return nil, fmt.Errorf("service: FarmChunks body has %d external inputs and %d outputs, needs exactly one of each",
			len(fr.body.ExternalIn), len(fr.body.ExternalOut))
	}
	var err error
	if fr.bodyXML, err = fr.body.EncodeXML(); err != nil {
		return nil, err
	}
	opts = opts.withFarmDefaults(s.res)
	fr.opts = opts
	// Register with the admission scheduler before any slot is taken: a
	// draining daemon refuses the farm here (ErrDraining), while farms
	// registered before the drain keep acquiring slots for their
	// remaining chunks and finish normally.
	if err := s.admit.beginFarm(opts.Tenant); err != nil {
		return nil, err
	}
	defer s.admit.endFarm()
	fr.tstats = s.tenantFarm(opts.Tenant)
	fr.tstats.farms.Inc()
	if fr.manifests, err = s.prepareFarmManifests(chunks, fr.tstats); err != nil {
		return nil, err
	}
	defer fr.manifests.release()
	fr.id = s.nextRunID.Add(1)
	report := fr.report
	var state map[string][]byte

	// Resume: a journal restored from a checkpoint replays the
	// committed prefix — outputs byte for byte, carried state intact —
	// and the despatch loop starts at the first uncommitted chunk.
	resumeFrom := 0
	if opts.ResumeKey != "" {
		if j := s.farms.resume(opts.ResumeKey); j != nil && j.committed <= len(chunks) {
			for _, ob := range j.outputs {
				d, err := types.Unmarshal(ob)
				if err != nil {
					return report, fmt.Errorf("service: replaying journal %q: %w", opts.ResumeKey, err)
				}
				report.Outputs = append(report.Outputs, d)
			}
			if len(j.state) > 0 {
				state = j.state
			}
			resumeFrom = j.committed
			report.ResumedChunks = j.committed
			s.farms.begin(opts.ResumeKey, j)
		} else {
			s.farms.begin(opts.ResumeKey, nil)
		}
	}

	defer func() {
		fr.losers.Wait()
		report.WastedOutputs = fr.wasted.Load()
		report.SpeculationWaste = fr.specWaste.Load()
	}()

	for c := resumeFrom; c < len(chunks); c++ {
		won, err := fr.runChunk(ctx, c, chunks[c], state)
		if err != nil {
			return report, err
		}
		report.Outputs = append(report.Outputs, won.got...)
		if len(won.newState) > 0 {
			state = won.newState
		}
		report.PeerChunks[won.peer.ID]++
		chunksCommitted.Inc()
		fr.tstats.chunks.Inc()
		if opts.ResumeKey != "" {
			// Journal the commit, then make it durable before AfterChunk
			// (the chaos tests crash there): a kill after this point
			// resumes past this chunk instead of re-running it.
			marshalled := make([][]byte, 0, len(won.got))
			for _, d := range won.got {
				p, merr := types.Marshal(d)
				if merr != nil {
					return report, fmt.Errorf("service: journaling chunk %d: %w", c, merr)
				}
				marshalled = append(marshalled, p)
			}
			s.farms.commit(opts.ResumeKey, marshalled, state)
			if s.opts.StateDir != "" {
				if cerr := s.CheckpointNow(); cerr != nil {
					s.logf("service: farm %q chunk %d checkpoint: %v", opts.ResumeKey, c, cerr)
				}
			}
		}
		if opts.AfterChunk != nil {
			opts.AfterChunk(c)
		}
	}
	report.FinalState = state
	if opts.ResumeKey != "" {
		// The farm is complete; drop the journal so a restart does not
		// replay a finished farm, and persist the removal.
		s.farms.finish(opts.ResumeKey)
		if s.opts.StateDir != "" {
			if cerr := s.CheckpointNow(); cerr != nil {
				s.logf("service: farm %q completion checkpoint: %v", opts.ResumeKey, cerr)
			}
		}
	}
	return report, nil
}

// eligible narrows the candidates to a committed group's members
// before any despatch: out-of-group peers are invisible to selection,
// failover, speculation and quorum ballots alike.
func eligible(peers []PeerRef, group string, members map[string]bool) ([]string, map[string]PeerRef) {
	var ids []string
	byID := make(map[string]PeerRef, len(peers))
	for _, p := range peers {
		if group == "" || members[p.ID] {
			ids = append(ids, p.ID)
			byID[p.ID] = p
		}
	}
	return ids, byID
}

// runChunk drives chunk c to a committed ballot or a terminal error: it
// steps the chunk's core, runs the actions, and waits for the next
// event — the one loop plain, speculative and quorum farming all run.
func (fr *farmRun) runChunk(ctx context.Context, c int, chunk []types.Data, state map[string][]byte) (farmAttempt, error) {
	cr := &chunkRun{
		farmRun: fr, ctx: ctx, c: c, chunk: chunk, state: state,
		// Buffered to the attempt budget — every launch spends from it —
		// so attempt goroutines never block on delivery, even after the
		// coordinator has moved on.
		results:  make(chan farmResult, fr.opts.ChunkAttempts),
		attempts: make([]farmAttempt, 0, fr.majority+1),
		core:     chunkCore{majority: fr.majority, budget: fr.opts.ChunkAttempts, speculate: fr.opts.Speculate},
	}
	chunksInflight.Add(1)
	defer chunksInflight.Add(-1)
	defer func() {
		if cr.straggler != nil {
			cr.straggler.Stop()
		}
	}()

	ev := event{kind: evStart}
	for {
		next, answered, ended := cr.run(cr.core.step(ev))
		if ended {
			break
		}
		if answered {
			ev = next
			continue
		}
		var stragglerC <-chan time.Time
		if cr.straggler != nil {
			stragglerC = cr.straggler.C
		}
		select {
		case <-ctx.Done():
			cr.doneErr = ctx.Err()
			ev = event{kind: evDone}
		case <-stragglerC:
			ev = event{kind: evStraggler}
		case r := <-cr.results:
			ev = cr.receive(r)
		}
	}
	if cr.reap {
		// Cancelled attempts keep running until their cancel lands; a
		// reaper drains them through the core, which from here on is
		// the reaper's alone.
		cr.losers.Add(1)
		go func() {
			defer cr.losers.Done()
			for cr.core.running() > 0 {
				r := <-cr.results
				cr.run(cr.core.step(event{kind: evFailed, idx: r.idx, items: len(r.items)}))
			}
		}()
	}
	if cr.err != nil {
		return farmAttempt{}, cr.err
	}
	return cr.attempts[cr.won], nil
}

// run carries out the core's actions. A seek or a fetch is answered at
// once, and its answer is the next event; ended reports that the chunk
// committed or failed.
func (cr *chunkRun) run(acts []action) (answer event, answered, ended bool) {
	s := cr.s
	for _, act := range acts {
		switch act.kind {
		case actSeek:
			answer, answered = cr.seek(act), true
		case actLaunch:
			cr.launch(act)
		case actArm:
			if act.idx < 0 {
				// Skipped, not spent: a slot or a half-open peer may free
				// while the straggler is still running.
				cr.straggler.Reset(stragglerRetry)
				break
			}
			if cr.straggler != nil {
				cr.straggler.Stop()
			}
			cr.straggler = time.NewTimer(s.stragglerThreshold(cr.attempts[act.idx].peer.ID, cr.opts))
		case actRelease:
			s.admit.release(cr.opts.Tenant)
		case actWaste:
			// Outputs produced but never to be committed; backup marks
			// waste a speculative race caused.
			n := int64(act.n)
			cr.wasted.Add(n)
			s.resStats.WastedItems.Add(n)
			if act.backup {
				cr.specWaste.Add(n)
				s.resStats.SpeculationWaste.Add(n)
			}
		case actFailed:
			s.health.ReportFailure(cr.attempts[act.idx].peer.ID)
		case actAgreed:
			s.health.ReportSuccess(cr.attempts[act.idx].peer.ID, cr.attempts[act.idx].elapsed)
		case actDissent:
			s.health.ReportByzantine(cr.attempts[act.idx].peer.ID)
			cr.report.QuorumDisagreements++
			s.resStats.QuorumDisagreements.Inc()
			s.logf("service: farm %d chunk %d quorum: peer %s voted outside the plurality",
				cr.id, cr.c, cr.attempts[act.idx].peer.ID)
		case actFetch:
			answer, answered = cr.fetch(act.idx), true
		case actCancel:
			for i := range cr.attempts {
				cr.attempts[i].cancel()
			}
			cr.reap = true
		case actDrop:
			// The chunk no longer needs the ballot's outputs, and a donor
			// drops its holds on an ended job's outputs when the job is
			// cancelled. Off the chunk's path, one unretried cancel,
			// bounded by probeTimeout: a cancel that is lost leaves the
			// holds to the donor's own bound. The reaper group holds
			// FarmChunks open until the cancel has resolved.
			job := cr.attempts[act.idx].job
			cr.losers.Add(1)
			go func() {
				defer cr.losers.Done()
				s.host.RequestTimeout(job.Part.Peer.Addr, MethodCancel, nil,
					map[string]string{"job": job.JobID}, probeTimeout)
			}()
		case actCommit:
			ended, cr.won = true, act.idx
			if cr.core.attempts[act.idx].backup {
				cr.report.SpeculationWins++
				s.resStats.SpeculationWins.Inc()
			}
			if cr.majority > 1 {
				s.resStats.QuorumCommits.Inc()
			}
		case actFail:
			ended, cr.err = true, cr.failure(act.cause)
		}
	}
	return answer, answered, ended
}

// seek answers the core's request for a candidate and an admission
// slot. A formerly-dead peer is pinged first, once and unretried: it is
// either back or it is not.
func (cr *chunkRun) seek(act action) event {
	s, tenant := cr.s, cr.opts.Tenant
	peer, needsProbe, ok := cr.nextPeer(act.gated)
	if !ok {
		return event{kind: evExhausted}
	}
	// Deadlock discipline: block for a slot only while holding none.
	// Attempts in flight hold slots that this chunk's own loop releases
	// when it drains results, so a blocking acquire here would be
	// hold-and-wait — with a budget below the votes required, or
	// several farms racing, the despatch plane would seize.
	if !act.block {
		if !s.admit.tryAcquire(tenant) {
			return event{kind: evRefused}
		}
	} else if err := s.admit.acquire(cr.ctx, s.shutdown, tenant); err != nil {
		cr.doneErr = err
		return event{kind: evDone}
	}
	if needsProbe {
		start := time.Now()
		if _, err := s.host.RequestTimeout(peer.Addr, MethodPing, nil, nil, probeTimeout); err != nil {
			s.health.ReportFailure(peer.ID)
			cr.lastErr = err
			s.logf("service: farm %d chunk %d probe of %s failed: %v", cr.id, cr.c, peer.ID, err)
			return event{kind: evProbeFailed}
		}
		s.health.ReportSuccess(peer.ID, time.Since(start))
	}
	return event{kind: evGranted, peer: peer.ID}
}

// launch starts attempt act.idx on the peer the last seek granted.
func (cr *chunkRun) launch(act action) {
	s, idx := cr.s, act.idx
	if act.backup {
		cr.report.SpeculationLaunches++
		s.resStats.SpeculationLaunches.Inc()
	} else if act.redespatch {
		cr.report.Redespatches++
		s.resStats.Redespatches.Inc()
	}
	peer := cr.byID[cr.core.attempts[idx].peer]
	actx, cancel := context.WithCancel(cr.ctx)
	cr.attempts = append(cr.attempts, farmAttempt{peer: peer, cancel: cancel, start: time.Now()})
	go func() {
		r := cr.attempt(actx, peer)
		cancel()
		r.idx = idx
		cr.results <- r
	}()
}

// receive turns an attempt's result into the core's event: a clean
// full-length result is a ballot, anything else a failure.
func (cr *chunkRun) receive(r farmResult) event {
	a := &cr.attempts[r.idx]
	if r.err == nil && len(r.items) != len(cr.chunk) {
		r.err = errors.New("short result")
	}
	if r.err != nil {
		cr.lastErr = r.err
		cr.s.logf("service: farm %d chunk %d attempt %d on %s failed (%d/%d outputs): %v",
			cr.id, cr.c, r.idx, a.peer.ID, len(r.items), len(cr.chunk), r.err)
		return event{kind: evFailed, idx: r.idx, items: len(r.items)}
	}
	a.job, a.items, a.newState, a.elapsed = r.job, r.items, r.newState, time.Since(a.start)
	// A voter resolved the chunk's digests even before the vote commits
	// — later attempts can fetch from it instead of the controller.
	cr.manifests.recordResolved(cr.c, a.peer.Addr)
	ev := event{kind: evBallot, idx: r.idx, items: len(r.items), byRef: byReference(r.items)}
	if cr.majority > 1 {
		// Only a vote needs the digest; a lone ballot has nothing to be
		// compared with.
		ev.digest = resultDigest(ballotAddresses(r.items), r.newState)
	}
	return ev
}

// failure is the error a failed chunk returns.
func (cr *chunkRun) failure(cause failCause) error {
	fr := cr.farmRun
	switch {
	case cause == causeDone:
		return cr.doneErr
	case cause == causeNoBallot:
		// No ballot ever arrived, so the last attempt's failure is the
		// cause.
		return fmt.Errorf("service: farm chunk %d failed after %d attempts: %w", cr.c, cr.core.spent, cr.lastErr)
	case cause == causeNoVoter && fr.opts.Group != "" && len(fr.ids) < len(fr.opts.Peers):
		// Budget remained but every fresh in-group voter is spent: the
		// out-of-group candidates were deliberately skipped rather than
		// mixed into the electorate, and the typed error says so.
		capgroup.CountQuorumCapacity()
		return fmt.Errorf(
			"service: farm chunk %d: widening needs a fresh voter but group %s has none left (%d out-of-group candidates skipped): %w",
			cr.c, fr.opts.Group, len(fr.opts.Peers)-len(fr.ids), ErrNoQuorumCapacity)
	}
	return fmt.Errorf("service: farm chunk %d failed after %d attempts: no %d of its %d results agree",
		cr.c, cr.core.spent, cr.majority, cr.core.ballots())
}

// nextPeer picks the best eligible candidate not busy on this chunk.
// Usable (non-open-breaker) peers are tried in health rank order; a
// half-open peer claims its single probe slot, and needsProbe marks the
// ones whose last verdict was dead, so the launcher pings before
// trusting them. With allowGated set and nothing usable, the best
// open-breaker peer is forced — the attempt doubles as its probe.
func (cr *chunkRun) nextPeer(allowGated bool) (ref PeerRef, needsProbe, ok bool) {
	usable, gated := cr.s.health.Rank(cr.ids)
	for _, id := range usable {
		if cr.core.busy(id) {
			continue
		}
		if admitted, probe := cr.s.health.Admit(id); admitted {
			return cr.byID[id], probe, true
		}
	}
	if allowGated {
		for _, id := range gated {
			if !cr.core.busy(id) {
				return cr.byID[id], false, true
			}
		}
	}
	return PeerRef{}, false, false
}

// stragglerThreshold derives the speculation trigger for an attempt on
// the given peer: its observed p90 attempt latency scaled by
// stragglerFactor once history exists, the SpeculateAfter fallback
// before that.
func (s *Service) stragglerThreshold(peerID string, opts FarmOptions) time.Duration {
	if p90, ok := s.health.LatencyQuantile(peerID, 0.9); ok {
		return max(time.Duration(float64(p90)*stragglerFactor), time.Millisecond)
	}
	return opts.SpeculateAfter
}

// fetch decodes the winner's outputs into its ballot: a by-value item
// from the bytes the ballot carried, a by-reference one after fetching
// it by content address, the agreeing voters as peer rungs.
func (cr *chunkRun) fetch(winner int) event {
	s := cr.s
	var sources []chunkstore.Source
	for i := range cr.core.attempts {
		if a := &cr.core.attempts[i]; a.phase == attemptVoted && a.digest == cr.core.plurality {
			sources = append(sources, chunkstore.Source{Addr: cr.attempts[i].peer.Addr, Class: chunkstore.SourcePeer})
		}
	}
	w := &cr.attempts[winner]
	got := make([]types.Data, len(w.items))
	fetched := 0
	var err error
	for i, it := range w.items {
		p := it.value
		if p == nil {
			if p, err = s.chunks.FetchThrough(it.addr.digest(), sources, s.fetchChunkWire); err != nil {
				break
			}
			fetched++
		}
		var d types.Data
		if d, err = types.Unmarshal(p); err != nil {
			break
		}
		got[i] = types.Seal(d)
	}
	if err != nil {
		s.logf("service: farm %d chunk %d: the agreeing voters' outputs could not be had: %v", cr.id, cr.c, err)
		cr.lastErr = err
		return event{kind: evFetchFailed}
	}
	w.got = got
	s.resStats.QuorumFetches.Add(int64(fetched))
	return event{kind: evFetched}
}

// attempt runs the chunk on one peer: despatch with restored state and
// the chunk's manifest, then wait for the job's reply, which carries
// its result list and completion state. The attempt holds no deadline:
// it lasts as long as the peer's session lives and ctx allows. A silent
// session or a dial refused past the retry budget is this attempt's
// dead verdict on the peer. An abandoned attempt (a racing sibling
// committed first, or the farm ended) cancels its remote job, best
// effort; once the cancel has landed, one more wait reads the job's
// record, so the waste books count the outputs of a job that finished
// before the cancel reached it. That wait is bounded by probeTimeout: a
// wedged job that ignores its cancel holds FarmChunks no longer.
func (cr *chunkRun) attempt(ctx context.Context, peer PeerRef) farmResult {
	s, opts, c := cr.s, cr.opts, cr.c
	// The chunk's manifest rides the request: the donor resolves it
	// through its cache, the ring, sibling donors, and only then the
	// controller — that ladder, not this attempt, is the data plane.
	// Abandoning the attempt does not cut its despatch short: the donor
	// may already have accepted the run, and only the reply names the
	// job to cancel.
	manifest := cr.manifests.manifestFor(c, peer.Addr)
	job, err := s.despatchCtx(context.WithoutCancel(ctx), RemotePart{
		Peer:         peer,
		Body:         cr.body,
		Iterations:   1,
		Seed:         opts.Seed,
		RestoreState: cr.state,
		Tenant:       opts.Tenant,
		Group:        opts.Group,

		bodyXML:  cr.bodyXML,
		manifest: manifest,
	}, opts.CodeAddr)
	if err != nil {
		s.declareDead(peer, err)
		return farmResult{err: err}
	}
	s.resStats.FarmEgressBytes.Add(int64(len(manifest)))
	cr.tstats.egress.Add(int64(len(manifest)))

	res, err := s.waitRemote(ctx, job)
	if err != nil && ctx.Err() != nil {
		if s.CancelRemote(job) == nil {
			waitCtx, stop := context.WithTimeout(context.Background(), probeTimeout)
			res, _ = s.waitRemote(waitCtx, job)
			stop()
			if byReference(res.items) {
				// The job ended before the cancel landed, holding the
				// outputs it listed by address: nobody will fetch them.
				s.CancelRemote(job)
			}
		}
		return farmResult{items: res.items, err: ctx.Err()}
	}
	if err != nil {
		s.declareDead(peer, err)
		return farmResult{err: err}
	}
	return farmResult{job: job, items: res.items, newState: res.state}
}
