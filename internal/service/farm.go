// Chunked resilient farming: one chunk runner, an attempt-set state
// machine, over the §3.6.2 checkpointed re-despatch path — the
// untrusted-consumer-peer layer. Plain, speculative and quorum farming
// are parameter values of that one machine (votes required K =
// max(1, Quorum), and a backup policy), not separate loops.
//
// A farmRun holds what is constant across a farm's chunks; a chunkRun
// is one chunk's attempt set. Its rules, each stated once:
//
// Selection: candidates are ranked by the live health tracker (EWMA
// success score, then observed latency). Open-breaker peers are
// skipped; a heartbeat-declared-dead peer whose cooldown has elapsed is
// pinged before it gets real work. A gated peer is forced only when the
// chunk has no ballot and nothing in flight, so progress never stalls
// while budget remains. A committed capability group narrows the
// candidates up front; nothing ever votes from outside it.
//
// Launching: primaries launch while ballots + attempts in flight < K
// and attempt budget remains. The chunk blocks for an admission slot
// only while it holds none; otherwise a refused slot means "skip now,
// drain a result, retry". With Speculate (and K = 1) each launch arms a
// straggler timer — the peer's observed p90 attempt latency ×
// StragglerFactor, or SpeculateAfter before history exists — whose
// firing launches a backup on the next-healthiest peer.
//
// Deciding: every clean full-length result is a ballot. K = 1 commits
// the first ballot at once and abandons its racers. K > 1 tallies
// result digests only when nothing is in flight, so the outcome is
// independent of arrival order: a majority (K/2+1) commits, an
// inconclusive vote widens the electorate by exactly one fresh voter
// with prior ballots live, and no budget or candidate left is terminal.
// The books close once per chunk: agreeing voters earn a success,
// voters outside the plurality take the byzantine penalty (§3.8's
// hostile peer), and every non-committed ballot's outputs are waste.
// Losers are cancelled (their remote jobs too) and reaped before
// FarmChunks returns.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"consumergrid/internal/capgroup"
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
	// Body builds the group body to despatch — a fresh graph per
	// attempt, with exactly one external input and one external output
	// (the streamed farm shape).
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
	// AttemptTimeout bounds one chunk attempt end to end (default 30s).
	AttemptTimeout time.Duration
	// InitialState primes the first chunk's RestoreState (resuming an
	// earlier farm).
	InitialState map[string][]byte
	// Heartbeat runs the failure detector against the attempt's peer,
	// cancelling the attempt when the peer is declared dead.
	Heartbeat bool
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
	// StragglerFactor scales the peer's observed p90 attempt latency
	// into the threshold once history exists (default 2.0).
	StragglerFactor float64
	// MaxSpeculative bounds backup attempts per chunk (default 1).
	MaxSpeculative int
	// Quorum, when > 1, despatches each chunk to Quorum peers and
	// commits only a majority-agreed result digest. Overrides
	// Speculate for the chunk's launch strategy.
	Quorum int

	// Tenant names the submitting tenant: admission slots are charged to
	// its fair-share queue, the identity rides every despatch envelope,
	// and the farm's committed chunks and egress bytes land on
	// tenant-labelled series. Empty means DefaultTenant.
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
	if o.AttemptTimeout <= 0 {
		o.AttemptTimeout = 30 * time.Second
	}
	if o.SpeculateAfter <= 0 {
		o.SpeculateAfter = 2 * time.Second
	}
	if o.StragglerFactor <= 0 {
		o.StragglerFactor = 2.0
	}
	if o.MaxSpeculative <= 0 {
		o.MaxSpeculative = 1
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
	// FinalState is the checkpoint after the last chunk, despatchable as
	// the next farm's InitialState.
	FinalState map[string][]byte
	// Redespatches counts non-speculative chunk attempts beyond each
	// chunk's first.
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

// farmRun is what stays constant across one farm's chunks.
type farmRun struct {
	s    *Service
	opts FarmOptions
	id   int64
	// votes is the ballots a chunk needs before it can commit:
	// max(1, Quorum). Plain and speculative farming are votes == 1.
	votes int

	// datums holds every chunk's canonical payloads (and digests),
	// computed once per farm; manifests is the data-tier state when the
	// controller runs the chunk store; tstats caches the tenant's farm
	// series.
	datums    [][]manifestDatum
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
}

// chunkRun is one chunk's attempt set: everything launched for the
// chunk, in launch order, and the budgets left.
type chunkRun struct {
	*farmRun
	ctx   context.Context
	c     int
	chunk []types.Data
	state map[string][]byte

	results  chan farmResult
	attempts []farmAttempt
	running  int // attempts in flight, each holding an admission slot
	ballots  int // attempts that voted
	backups  int // attempts launched by the straggler timer
	spent    int // of ChunkAttempts: launches plus failed probes

	straggler *time.Timer
}

// farmAttempt is the coordinator's record of one launched attempt.
type farmAttempt struct {
	peer   PeerRef
	cancel context.CancelFunc
	backup bool
	start  time.Time
	phase  attemptPhase

	// The ballot, once voted: a clean, full-length result. digest is
	// computed only when votes > 1; with one vote required every ballot
	// agrees.
	got      []types.Data
	newState map[string][]byte
	digest   string
	elapsed  time.Duration
}

type attemptPhase int

const (
	attemptRunning attemptPhase = iota
	attemptVoted
	attemptFailed
)

// farmResult is one attempt's terminal report, delivered on the chunk
// coordinator's results channel.
type farmResult struct {
	idx      int
	got      []types.Data
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
		// One peer, one vote: a majority of Quorum/2+1 distinct voters can
		// never form, so reject the configuration up front instead of
		// burning every chunk's attempt budget discovering it.
		return nil, fmt.Errorf("service: FarmChunks Quorum %d exceeds %d peers — majority unreachable",
			opts.Quorum, len(opts.Peers))
	}
	fr := &farmRun{
		s:      s,
		votes:  max(1, opts.Quorum),
		byID:   make(map[string]PeerRef, len(opts.Peers)),
		report: &FarmReport{PeerChunks: make(map[string]int)},
	}
	// A committed group narrows the eligible candidates before any
	// despatch: out-of-group peers are invisible to selection, failover,
	// speculation and quorum ballots alike. A quorum that cannot seat
	// its electorate inside the group fails fast, same reasoning as the
	// peer-count check above.
	for _, p := range opts.Peers {
		if opts.Group == "" || opts.GroupMembers[p.ID] {
			fr.ids = append(fr.ids, p.ID)
			fr.byID[p.ID] = p
		}
	}
	if len(fr.ids) == 0 {
		return nil, fmt.Errorf("service: FarmChunks committed to group %s but no candidate peer is a member",
			opts.Group)
	}
	if opts.Quorum > len(fr.ids) {
		capgroup.CountQuorumCapacity()
		return nil, fmt.Errorf("service: FarmChunks Quorum %d exceeds the %d members of group %s: %w",
			opts.Quorum, len(fr.ids), opts.Group, ErrNoQuorumCapacity)
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
	// Canonically encode every datum once: the payloads feed the digests,
	// the attempt streams, and (data tier on) the pinned chunks and ring
	// replicas — so re-despatches and speculative backups never re-pay
	// the marshal, and a chunk's identity is fixed before attempt one.
	var err error
	if fr.datums, err = digestFarmChunks(chunks); err != nil {
		return nil, err
	}
	if s.chunks != nil {
		fr.manifests = s.prepareFarmManifests(fr.datums)
		defer fr.manifests.release()
	}
	fr.id = s.nextRunID.Add(1)
	report := fr.report
	state := opts.InitialState

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

	defer fr.losers.Wait()

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

// runChunk drives chunk c to a committed ballot or a terminal error —
// the one loop plain, speculative and quorum farming all run.
func (fr *farmRun) runChunk(ctx context.Context, c int, chunk []types.Data, state map[string][]byte) (farmAttempt, error) {
	cr := &chunkRun{
		farmRun: fr, ctx: ctx, c: c, chunk: chunk, state: state,
		// Buffered to the attempt budget — every launch spends from it —
		// so attempt goroutines never block on delivery, even after the
		// coordinator has moved on.
		results:  make(chan farmResult, fr.opts.ChunkAttempts),
		attempts: make([]farmAttempt, 0, fr.votes+1),
	}
	chunksInflight.Add(1)
	defer chunksInflight.Add(-1)
	defer func() {
		if cr.straggler != nil {
			cr.straggler.Stop()
		}
	}()
	s, tenant := fr.s, fr.opts.Tenant

	for {
		// Top up toward the votes required while candidates and budget
		// remain. An attempt in flight, backup included, is a ballot
		// that may yet arrive.
		for cr.ballots+cr.running < cr.votes {
			launched, err := cr.launch(false)
			if err != nil {
				cr.abandon(false)
				return farmAttempt{}, err
			}
			if !launched {
				break
			}
		}
		// Decide. One vote required: the first ballot commits at once.
		// More: only when every launched attempt has resolved, so the
		// outcome is independent of arrival order.
		if cr.running == 0 || (cr.votes == 1 && cr.ballots > 0) {
			plurality, winner := cr.tally()
			if winner >= 0 {
				cr.abandon(true)
				cr.settle(plurality, winner)
				won := cr.attempts[winner]
				if won.backup {
					fr.report.SpeculationWins++
					s.resStats.SpeculationWins.Inc()
				}
				if cr.votes > 1 {
					s.resStats.QuorumCommits.Inc()
				}
				return won, nil
			}
			// Inconclusive. Widen the electorate by exactly one fresh
			// voter — existing ballots stay live (they may yet join a
			// majority) and their peers stay busy, so every pass either
			// adds a voter or ends the chunk.
			launched, err := cr.launch(false)
			if err != nil {
				return farmAttempt{}, err
			}
			if !launched {
				// Terminal: no budget or no fresh candidate.
				cr.settle(plurality, -1)
				if fr.opts.Group != "" && len(fr.ids) < len(fr.opts.Peers) && cr.spent < fr.opts.ChunkAttempts {
					// Budget remained but every fresh in-group voter is
					// spent: the out-of-group candidates were deliberately
					// skipped rather than mixed into the electorate, and
					// the typed error says so.
					capgroup.CountQuorumCapacity()
					return farmAttempt{}, fmt.Errorf(
						"service: farm chunk %d: widening needs a fresh voter but group %s has none left (%d out-of-group candidates skipped): %w",
						c, fr.opts.Group, len(fr.opts.Peers)-len(fr.ids), ErrNoQuorumCapacity)
				}
				return farmAttempt{}, fmt.Errorf(
					"service: farm chunk %d failed after %d attempts: no %d of its %d results agree",
					c, cr.spent, cr.votes/2+1, cr.ballots)
			}
		}
		var stragglerC <-chan time.Time
		if cr.straggler != nil {
			stragglerC = cr.straggler.C
		}
		select {
		case <-ctx.Done():
			cr.abandon(false)
			return farmAttempt{}, ctx.Err()
		case <-stragglerC:
			if cr.backups < fr.opts.MaxSpeculative && cr.running > 0 {
				// The chunk holds a slot, so this launch never blocks
				// and cannot fail — it starts a backup or skips.
				if launched, _ := cr.launch(true); launched {
					fr.report.SpeculationLaunches++
					s.resStats.SpeculationLaunches.Inc()
				} else if cr.spent < fr.opts.ChunkAttempts {
					// Skipped, not spent: no admission slot or free
					// peer right now. Re-arm shortly — a slot or a
					// half-open peer may free while the straggler is
					// still running.
					cr.straggler.Reset(stragglerRetry)
				}
			}
		case r := <-cr.results:
			a := &cr.attempts[r.idx]
			cr.running--
			s.admit.release(tenant)
			if r.err == nil && len(r.got) != len(chunk) {
				r.err = errors.New("short result")
			}
			if r.err == nil && cr.votes > 1 {
				// Only a vote needs the digest; a lone ballot has
				// nothing to be compared with.
				a.digest, r.err = resultDigest(r.got, r.newState)
			}
			if r.err != nil {
				// The peer is free to be picked again.
				a.phase = attemptFailed
				s.health.ReportFailure(a.peer.ID)
				fr.waste(len(r.got), false)
				s.logf("service: farm %d chunk %d attempt %d on %s failed (%d/%d outputs): %v",
					fr.id, c, r.idx, a.peer.ID, len(r.got), len(chunk), r.err)
				continue
			}
			// The peer stays busy: it has voted.
			a.phase, a.got, a.newState, a.elapsed = attemptVoted, r.got, r.newState, time.Since(a.start)
			cr.ballots++
			if fr.manifests != nil {
				// A voter resolved the chunk's digests even before the
				// vote commits — later attempts can fetch from it
				// instead of the controller.
				fr.manifests.recordResolved(c, a.peer.Addr)
			}
		}
	}
}

// launch starts the chunk on the best admitted candidate, as a primary
// or a straggler backup. A formerly-dead peer is pinged first; a failed
// probe releases the slot, spends an attempt and moves to the next
// candidate. It reports false — skipped, not failed — when no budget,
// candidate or (for a chunk already holding one) admission slot is
// available right now.
func (cr *chunkRun) launch(backup bool) (bool, error) {
	s, tenant := cr.s, cr.opts.Tenant
	for cr.spent < cr.opts.ChunkAttempts {
		holding := cr.running > 0
		// A gated peer is forced only when the chunk would otherwise
		// fail outright — never for a backup or a quorum top-up.
		peer, needsProbe, ok := cr.nextPeer(!holding && cr.ballots == 0)
		if !ok {
			return false, nil
		}
		// Deadlock discipline: block for a slot only while holding none.
		// Attempts in flight hold slots that this chunk's own loop
		// releases when it drains results, so a blocking acquire here
		// would be hold-and-wait — with a budget below the votes
		// required, or several farms racing, the despatch plane would
		// seize. Launches past the first are opportunistic instead:
		// skip now, drain a result, retry with the freed slot.
		if holding {
			if !s.admit.tryAcquire(tenant) {
				return false, nil
			}
		} else if err := s.admit.acquire(cr.ctx, s.shutdown, tenant); err != nil {
			return false, err
		}
		cr.spent++
		if needsProbe {
			// One unretried ping before real work is committed to a
			// formerly-dead peer: it is either back or it is not.
			start := time.Now()
			if _, err := s.host.RequestTimeout(peer.Addr, MethodPing, nil, nil, s.res.HeartbeatTimeout); err != nil {
				s.health.ReportFailure(peer.ID)
				s.admit.release(tenant)
				s.logf("service: farm %d chunk %d probe of %s failed: %v", cr.id, cr.c, peer.ID, err)
				continue
			}
			s.health.ReportSuccess(peer.ID, time.Since(start))
		}
		idx := len(cr.attempts)
		if backup {
			cr.backups++
		} else if idx-cr.backups >= cr.votes {
			// Primaries beyond the first `votes` replace failed or
			// inconclusive ones.
			cr.report.Redespatches++
			s.resStats.Redespatches.Inc()
		}
		actx, cancel := context.WithCancel(cr.ctx)
		cr.attempts = append(cr.attempts, farmAttempt{peer: peer, cancel: cancel, backup: backup, start: time.Now()})
		cr.running++
		go func() {
			got, newState, err := cr.attempt(actx, peer, idx)
			cancel()
			cr.results <- farmResult{idx: idx, got: got, newState: newState, err: err}
		}()
		if cr.opts.Speculate && cr.votes == 1 {
			if cr.straggler != nil {
				cr.straggler.Stop()
			}
			cr.straggler = time.NewTimer(s.stragglerThreshold(peer.ID, cr.opts))
		}
		return true, nil
	}
	return false, nil
}

// busy reports whether the peer is already working — or has voted on —
// this chunk: one peer, one vote. A peer whose attempt failed is free
// to be picked again.
func (cr *chunkRun) busy(peerID string) bool {
	for i := range cr.attempts {
		if a := &cr.attempts[i]; a.peer.ID == peerID && a.phase != attemptFailed {
			return true
		}
	}
	return false
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
		if cr.busy(id) {
			continue
		}
		if admitted, probe := cr.s.health.Admit(id); admitted {
			return cr.byID[id], probe, true
		}
	}
	if allowGated {
		for _, id := range gated {
			if !cr.busy(id) {
				return cr.byID[id], false, true
			}
		}
	}
	return PeerRef{}, false, false
}

// stragglerThreshold derives the speculation trigger for an attempt on
// the given peer: its observed p90 attempt latency scaled by
// StragglerFactor once history exists, the SpeculateAfter fallback
// before that.
func (s *Service) stragglerThreshold(peerID string, opts FarmOptions) time.Duration {
	if p90, ok := s.health.LatencyQuantile(peerID, 0.9); ok {
		d := time.Duration(float64(p90) * opts.StragglerFactor)
		if d < time.Millisecond {
			d = time.Millisecond
		}
		return d
	}
	return opts.SpeculateAfter
}

// tally counts the ballots by digest. plurality is the most-voted
// digest (ties to the smaller); winner is the earliest-launched attempt
// carrying it when it has reached the majority votes/2+1, else -1.
func (cr *chunkRun) tally() (plurality string, winner int) {
	best := 0
	for i := range cr.attempts {
		a := &cr.attempts[i]
		if a.phase != attemptVoted {
			continue
		}
		n := 0
		for j := range cr.attempts {
			if o := &cr.attempts[j]; o.phase == attemptVoted && o.digest == a.digest {
				n++
			}
		}
		if n > best || (n == best && a.digest < plurality) {
			plurality, best, winner = a.digest, n, i
		}
	}
	if best < cr.votes/2+1 {
		winner = -1
	}
	return plurality, winner
}

// settle closes the chunk's books — once, at commit (winner is the
// committed attempt) or at terminal failure (winner < 0). Voters that
// agreed with a committed majority earn their success; voters outside
// the plurality lost the vote, or kept one from forming, and take the
// byzantine penalty either way; every ballot but the committed one is
// discarded work, agreeing duplicates included.
func (cr *chunkRun) settle(plurality string, winner int) {
	s := cr.s
	for i := range cr.attempts {
		a := &cr.attempts[i]
		if a.phase != attemptVoted {
			continue
		}
		switch {
		case a.digest != plurality:
			s.health.ReportByzantine(a.peer.ID)
			cr.report.QuorumDisagreements++
			s.resStats.QuorumDisagreements.Inc()
			s.logf("service: farm %d chunk %d quorum: peer %s voted outside the plurality",
				cr.id, cr.c, a.peer.ID)
		case winner >= 0:
			s.health.ReportSuccess(a.peer.ID, a.elapsed)
		}
		if i != winner {
			cr.waste(len(a.got), false)
		}
	}
}

// waste counts outputs that were produced but will never be committed.
// specRace marks waste caused by a speculative race (vs. a failure, a
// lost vote or a farm-level cancellation).
func (fr *farmRun) waste(outputs int, specRace bool) {
	n := int64(outputs)
	atomic.AddInt64(&fr.report.WastedOutputs, n)
	fr.s.resStats.WastedItems.Add(n)
	if specRace {
		atomic.AddInt64(&fr.report.SpeculationWaste, n)
		fr.s.resStats.SpeculationWaste.Add(n)
	}
}

// abandon cancels every still-running attempt and hands their
// accounting to a reaper goroutine: waste is tallied and admission
// slots released as each loser drains, and the farm-level WaitGroup
// holds FarmChunks open until all are reaped.
func (cr *chunkRun) abandon(specRace bool) {
	remaining := cr.running
	if remaining == 0 {
		return
	}
	for i := range cr.attempts {
		if a := &cr.attempts[i]; a.phase == attemptRunning {
			a.cancel()
		}
	}
	cr.losers.Add(1)
	go func() {
		defer cr.losers.Done()
		for i := 0; i < remaining; i++ {
			r := <-cr.results
			cr.s.admit.release(cr.opts.Tenant)
			cr.waste(len(r.got), specRace)
		}
	}()
}

// attempt runs the chunk on one peer: despatch with restored state,
// stream the chunk in, collect outputs until the sink pipe closes, then
// fetch the completion state. Every pipe label is scoped to the
// (farm, chunk, attempt) triple so residue from a lost attempt can
// never leak into a later one — racing attempts of the same chunk get
// distinct attempt indices and therefore disjoint pipes.
func (cr *chunkRun) attempt(ctx context.Context, peer PeerRef, a int) ([]types.Data, map[string][]byte, error) {
	s, opts, c := cr.s, cr.opts, cr.c
	attemptCtx, cancel := context.WithTimeout(ctx, opts.AttemptTimeout)
	defer cancel()

	// The failure detector starts before the despatch so a peer that
	// dies during (or refuses) the handshake still earns its dead
	// verdict, opening the breaker for future selection.
	if opts.Heartbeat {
		stop := s.StartPeerHeartbeat(peer, cancel)
		defer stop()
	}

	prefix := fmt.Sprintf("farm/%s/%d/c%d/a%d", s.opts.PeerID, cr.id, c, a)
	pipe, _, err := s.host.OpenInput(prefix+"/out", len(cr.chunk)+1)
	if err != nil {
		return nil, nil, err
	}
	defer pipe.Close()
	pipe.ExpectEOFs(1)

	job, err := s.despatchCtx(attemptCtx, RemotePart{
		Peer:         peer,
		Body:         opts.Body(),
		InLabels:     []string{prefix + "/in"},
		OutTargets:   []PipeTarget{{Label: prefix + "/out", Addr: s.Addr()}},
		Iterations:   1,
		Seed:         opts.Seed,
		RestoreState: cr.state,
		Tenant:       opts.Tenant,
		Group:        opts.Group,
	}, opts.CodeAddr)
	if err != nil {
		return nil, nil, err
	}

	out, err := s.host.BindOutput(job.InAds[0])
	if err != nil {
		return nil, nil, err
	}
	// Feed the chunk. With the data tier negotiated on both ends, one
	// manifest frame replaces the payload stream: the donor resolves the
	// digests through its cache, the ring, sibling donors, and only then
	// the controller — that ladder, not this loop, is now the data plane.
	// A legacy peer (or a farm on a controller without the tier) still
	// gets the payloads streamed, checking the context between items so
	// an abandoned attempt stops feeding the loser promptly.
	var sendErr error
	if cr.manifests != nil && job.ChunkCapable {
		if attemptCtx.Err() == nil {
			payload := cr.manifests.manifestFor(c, peer.Addr)
			if sendErr = out.SendManifest(payload); sendErr == nil {
				s.resStats.FarmEgressBytes.Add(int64(len(payload)))
				cr.tstats.egress.Add(int64(len(payload)))
			}
		}
	} else {
		for _, d := range cr.datums[c] {
			if attemptCtx.Err() != nil {
				break
			}
			if sendErr = out.SendRaw(d.payload); sendErr != nil {
				break
			}
			s.resStats.FarmEgressBytes.Add(int64(len(d.payload)))
			cr.tstats.egress.Add(int64(len(d.payload)))
		}
	}
	// Abandoned mid-stream: cancel the remote job before signalling
	// end-of-stream — the worker must not mistake the truncated input
	// for a short-but-complete chunk and commit a partial result as
	// done. CancelRemote is a synchronous RPC, so the verdict lands
	// before the EOF does.
	cancelled := false
	if attemptCtx.Err() != nil {
		s.CancelRemote(job)
		cancelled = true
	}
	out.Close()

	// Collect until the remote signals EOF (pipe.C closes) or the
	// attempt dies. A worker that vanishes breaks its output conn, which
	// counts as its EOF, so this loop always terminates.
	var got []types.Data
collect:
	for {
		select {
		case d, ok := <-pipe.C:
			if !ok {
				break collect
			}
			got = append(got, d)
		case <-attemptCtx.Done():
			break collect
		}
	}
	if err := attemptCtx.Err(); err != nil {
		// Abandoned attempt (timeout, dead verdict, or a racing sibling
		// committed first): tell the peer to stop, best effort.
		if !cancelled {
			s.CancelRemote(job)
		}
		return got, nil, err
	}
	if sendErr != nil {
		return got, nil, sendErr
	}
	_, newState, err := s.waitRemoteStateCtx(attemptCtx, job)
	if err != nil {
		return got, nil, err
	}
	return got, newState, nil
}
