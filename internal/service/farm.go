// Chunked resilient farming: one chunk runner, an attempt-set state
// machine, over the §3.6.2 checkpointed re-despatch path — the
// untrusted-consumer-peer layer. Plain, speculative and quorum farming
// are parameter values of that one machine (an electorate of
// K = max(1, Quorum) voters, and a backup policy), not separate loops.
//
// A farmRun holds what is constant across a farm's chunks; a chunkRun
// is one chunk's attempt set. Its rules, each stated once:
//
// Selection: candidates are ranked by the live health tracker (EWMA
// success score, then observed latency). Open-breaker peers are
// skipped; a peer declared dead whose cooldown has elapsed is pinged
// before it gets real work. A gated peer is forced only when the
// chunk has no ballot and nothing in flight, so progress never stalls
// while budget remains. A committed capability group narrows the
// candidates up front; nothing ever votes from outside it.
//
// Launching: primaries launch while ballots + attempts in flight are
// fewer than a majority, K/2+1, and attempt budget remains: once a
// majority agrees the other voters could not change the outcome, so
// they launch only on dissent or failure. The chunk blocks for an
// admission slot only while it holds none; otherwise a refused slot
// means "skip now, drain a result, retry". With Speculate (and K = 1)
// each launch arms a straggler timer — the peer's observed p90 attempt
// latency × StragglerFactor, or SpeculateAfter before history exists —
// whose firing launches a backup on the next-healthiest peer.
//
// Despatch: an attempt is one triana.run request carrying the body,
// encoded once per farm, the carried state and the chunk's manifest,
// then one triana.wait. The donor resolves the chunk itself
// (datatier.go), and the wait reply brings the job's outputs home as a
// result list (quorum.go): an output of at most chunkstore.MaxInline
// bytes by value, any other as its raw content address, its bytes held
// in the donor's chunk store. The attempt opens no pipe: data moves out
// in the request and back in the reply.
//
// Ballot: every clean full-length result is a ballot. Its digest
// hashes the per-output content addresses (the SHA-256 of the
// types.Marshal bytes, which the chunk store names in hex) plus the
// sorted state frames, so a by-value and a by-reference ballot of the
// same result compare equal. The controller hashes by-value bytes
// itself; it never takes a digest a donor claims for bytes it was sent.
//
// Deciding: K = 1 commits the first ballot at once and abandons its
// racers. K > 1 tallies ballot digests only when nothing is in flight,
// so the outcome is independent of arrival order: a majority (K/2+1)
// commits, an inconclusive vote — a dissenting or split first
// electorate — widens it by exactly one fresh voter with prior ballots
// live, and no budget or candidate left is terminal.
//
// Commit: the winner's by-value items are decoded and committed as
// they came. Each by-reference item is fetched through
// chunkstore.FetchThrough, the agreeing voters as peer rungs — the
// fetch checks the bytes against their address, and the controller
// keeps no copy — then decoded and committed, counting
// service_quorum_fetches_total. If an output cannot be had, the
// agreeing ballots become failed attempts with no byzantine penalty,
// and topping up and widening take over.
//
// The books close once per chunk: agreeing voters earn a success,
// voters outside the plurality take the byzantine penalty (§3.8's
// hostile peer), and every non-committed ballot's outputs are waste.
// Once the chunk ends, every ballot that listed an output by address
// gets one unretried triana.cancel, which releases the donor's holds.
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
	// StragglerFactor scales the peer's observed p90 attempt latency
	// into the threshold once history exists (default 2.0).
	StragglerFactor float64
	// MaxSpeculative bounds backup attempts per chunk (default 1).
	MaxSpeculative int
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
// a peer once declared dead, and the cancel that releases a ballot's
// holds.
const probeTimeout = time.Second

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
	running  int   // attempts in flight, each holding an admission slot
	ballots  int   // attempts that voted
	backups  int   // attempts launched by the straggler timer
	spent    int   // of ChunkAttempts: launches plus failed probes
	lastErr  error // the most recent failed attempt's error

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
	// computed only when majority > 1; with one vote required every ballot
	// agrees. got holds the decoded outputs once the ballot commits.
	job      *RemoteJob
	items    []resultItem
	newState map[string][]byte
	digest   string
	elapsed  time.Duration
	got      []types.Data
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
		byID:     make(map[string]PeerRef, len(opts.Peers)),
		report:   &FarmReport{PeerChunks: make(map[string]int)},
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

// runChunk drives chunk c to a committed ballot or a terminal error —
// the one loop plain, speculative and quorum farming all run.
func (fr *farmRun) runChunk(ctx context.Context, c int, chunk []types.Data, state map[string][]byte) (farmAttempt, error) {
	cr := &chunkRun{
		farmRun: fr, ctx: ctx, c: c, chunk: chunk, state: state,
		// Buffered to the attempt budget — every launch spends from it —
		// so attempt goroutines never block on delivery, even after the
		// coordinator has moved on.
		results:  make(chan farmResult, fr.opts.ChunkAttempts),
		attempts: make([]farmAttempt, 0, fr.majority+1),
	}
	chunksInflight.Add(1)
	defer chunksInflight.Add(-1)
	defer cr.release()
	defer func() {
		if cr.straggler != nil {
			cr.straggler.Stop()
		}
	}()
	s, tenant := fr.s, fr.opts.Tenant

	for {
		// Top up toward a majority while candidates and budget remain:
		// once a majority agrees, further voters could not change the
		// outcome, so they launch only when the vote is inconclusive.
		// An attempt in flight, backup included, is a ballot that may
		// yet arrive.
		for cr.ballots+cr.running < cr.majority {
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
		if cr.running == 0 || (cr.majority == 1 && cr.ballots > 0) {
			plurality, winner := cr.tally()
			if winner >= 0 && !cr.commitOutputs(plurality, winner) {
				// The winner's outputs could not be had: the agreeing
				// ballots failed, so top up and decide again.
				continue
			}
			if winner >= 0 {
				cr.abandon(true)
				cr.settle(plurality, winner)
				won := cr.attempts[winner]
				if won.backup {
					fr.report.SpeculationWins++
					s.resStats.SpeculationWins.Inc()
				}
				if cr.majority > 1 {
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
				if cr.majority == 1 {
					// No ballot ever arrived, so the last attempt's
					// failure is the cause.
					return farmAttempt{}, fmt.Errorf("service: farm chunk %d failed after %d attempts: %w",
						c, cr.spent, cr.lastErr)
				}
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
					c, cr.spent, cr.majority, cr.ballots)
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
			if r.err == nil && len(r.items) != len(chunk) {
				r.err = errors.New("short result")
			}
			if r.err == nil && cr.majority > 1 {
				// Only a vote needs the digest; a lone ballot has
				// nothing to be compared with.
				a.digest = resultDigest(ballotAddresses(r.items), r.newState)
			}
			if r.err != nil {
				// The peer is free to be picked again.
				a.phase = attemptFailed
				cr.lastErr = r.err
				s.health.ReportFailure(a.peer.ID)
				fr.waste(len(r.items), false)
				s.logf("service: farm %d chunk %d attempt %d on %s failed (%d/%d outputs): %v",
					fr.id, c, r.idx, a.peer.ID, len(r.items), len(chunk), r.err)
				continue
			}
			// The peer stays busy: it has voted.
			a.phase, a.job, a.items, a.newState, a.elapsed = attemptVoted, r.job, r.items, r.newState, time.Since(a.start)
			cr.ballots++
			// A voter resolved the chunk's digests even before the vote
			// commits — later attempts can fetch from it instead of the
			// controller.
			fr.manifests.recordResolved(c, a.peer.Addr)
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
			if _, err := s.host.RequestTimeout(peer.Addr, MethodPing, nil, nil, probeTimeout); err != nil {
				s.health.ReportFailure(peer.ID)
				s.admit.release(tenant)
				cr.lastErr = err
				s.logf("service: farm %d chunk %d probe of %s failed: %v", cr.id, cr.c, peer.ID, err)
				continue
			}
			s.health.ReportSuccess(peer.ID, time.Since(start))
		}
		idx := len(cr.attempts)
		if backup {
			cr.backups++
		} else if idx-cr.backups >= cr.majority {
			// Primaries beyond the first majority replace failed ones
			// or widen an inconclusive vote.
			cr.report.Redespatches++
			s.resStats.Redespatches.Inc()
		}
		actx, cancel := context.WithCancel(cr.ctx)
		cr.attempts = append(cr.attempts, farmAttempt{peer: peer, cancel: cancel, backup: backup, start: time.Now()})
		cr.running++
		go func() {
			r := cr.attempt(actx, peer)
			cancel()
			r.idx = idx
			cr.results <- r
		}()
		if cr.opts.Speculate && cr.majority == 1 {
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
// digest (ties to the smaller). Once it has the majority K/2+1,
// winner is the earliest-launched attempt voting for it; otherwise
// winner is -1.
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
			plurality, best = a.digest, n
		}
	}
	if best < cr.majority {
		return plurality, -1
	}
	for i := range cr.attempts {
		if a := &cr.attempts[i]; a.phase == attemptVoted && a.digest == plurality {
			return plurality, i
		}
	}
	return plurality, -1
}

// commitOutputs decodes the winner's outputs into its ballot: a
// by-value item from the bytes the ballot carried, a by-reference one
// after fetching it by content address, the agreeing voters as peer
// rungs. If an output cannot be had, every agreeing ballot becomes a
// failed attempt — a plain failure, not the byzantine penalty — and it
// reports false.
func (cr *chunkRun) commitOutputs(plurality string, winner int) bool {
	s := cr.s
	var sources []chunkstore.Source
	for i := range cr.attempts {
		if a := &cr.attempts[i]; a.phase == attemptVoted && a.digest == plurality {
			sources = append(sources, chunkstore.Source{Addr: a.peer.Addr, Class: chunkstore.SourcePeer})
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
	if err == nil {
		w.got = got
		s.resStats.QuorumFetches.Add(int64(fetched))
		return true
	}
	s.logf("service: farm %d chunk %d: the agreeing voters' outputs could not be had: %v", cr.id, cr.c, err)
	cr.lastErr = err
	for i := range cr.attempts {
		if a := &cr.attempts[i]; a.phase == attemptVoted && a.digest == plurality {
			a.phase = attemptFailed
			cr.ballots--
			s.health.ReportFailure(a.peer.ID)
			cr.waste(len(a.items), false)
		}
	}
	return false
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
			cr.waste(len(a.items), false)
		}
	}
}

// release runs once the chunk has ended, however it ended. It cancels
// the ended job of every ballot that listed outputs by address: the
// chunk no longer needs them, and a donor drops its holds on an ended
// job's outputs when the job is cancelled. Off the chunk's path, one
// unretried cancel each, bounded by probeTimeout: a cancel that is lost
// leaves the holds to the donor's own bound. The reaper group
// holds FarmChunks open until every cancel has resolved.
func (cr *chunkRun) release() {
	for i := range cr.attempts {
		job := cr.attempts[i].job
		if job == nil || !byReference(cr.attempts[i].items) {
			continue
		}
		cr.losers.Add(1)
		go func() {
			defer cr.losers.Done()
			cr.s.host.RequestTimeout(job.Part.Peer.Addr, MethodCancel, nil,
				map[string]string{"job": job.JobID}, probeTimeout)
		}()
	}
}

// waste counts outputs that were produced but will never be committed.
// specRace marks waste caused by a speculative race (vs. a failure, a
// lost vote or a farm-level cancellation).
func (fr *farmRun) waste(outputs int, specRace bool) {
	n := int64(outputs)
	fr.wasted.Add(n)
	fr.s.resStats.WastedItems.Add(n)
	if specRace {
		fr.specWaste.Add(n)
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
			cr.waste(len(r.items), specRace)
		}
	}()
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
// before the cancel reached it.
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
			waitCtx, stop := context.WithTimeout(context.Background(), s.res.RequestTimeout)
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
