package service

// The untrusted-peer harness: deterministic byzantine + dead-peer chaos
// under result quorum, speculative-despatch races with cancel
// propagation, health-gated peer selection, admission control, and
// mid-chunk cancellation. Everything runs on the seeded simnet so the
// fault schedules replay identically.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"consumergrid/internal/gateway"
	"consumergrid/internal/health"
	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/metrics"
	"consumergrid/internal/simnet"
	"consumergrid/internal/taskgraph"
)

// quorumNet builds a controller plus four workers with test-unique
// labels (the process-global metrics registry keys gauges by
// observer/peer, so labels must not collide across tests).
func quorumNet(t *testing.T, n *simnet.Network, prefix string, healthOpts health.Options) (ctl *Service, peers []PeerRef) {
	t.Helper()
	return quorumNetOn(t, n, n.Peer(prefix+"ctl"), prefix, healthOpts)
}

// quorumNetOn is quorumNet with the controller on the given transport.
func quorumNetOn(t *testing.T, n *simnet.Network, ctlTr jxtaserve.Transport, prefix string, healthOpts health.Options) (ctl *Service, peers []PeerRef) {
	t.Helper()
	ctl = newService(t, ctlTr, prefix+"ctl", Options{
		Resilience: chaosResilience(),
		Health:     healthOpts,
	})
	for _, label := range []string{"w1", "w2", "w3", "w4"} {
		w := newService(t, n.Peer(prefix+label), prefix+label, Options{})
		peers = append(peers, PeerRef{ID: prefix + label, Addr: w.Addr()})
	}
	return ctl, peers
}

// TestChaosByzantineQuorum is the acceptance scenario: a seeded simnet
// with one byzantine peer (every result it returns silently corrupted)
// and one dead peer. A Quorum:3 farm must commit only
// majority-agreed outputs — identical to a clean run — while the
// byzantine peer's health score collapses below the suspicion threshold
// and the dead peer's breaker opens on its one attempt, all observable
// through the metrics registry.
func TestChaosByzantineQuorum(t *testing.T) {
	n := simnet.New()
	chaosByzantineQuorum(t, n, n.Peer("q-ctl"), "q-")
}

// TestChaosByzantineQuorumDataTier runs the same scenario with the
// controller's transport tapped, to check the data tier's side of it.
// No voter streams anything: the controller sends no pipe.data — the
// chunk inputs ride the triana.run manifests — and every committed
// output is fetched by content address, one chunk.fetch at least each.
func TestChaosByzantineQuorumDataTier(t *testing.T) {
	const prefix = "qd-"
	n := simnet.New()
	tap := simnet.NewTap(n.Peer(prefix + "ctl"))
	snap := chaosByzantineQuorum(t, n, tap, prefix)
	if sent := tap.SentMsgs(jxtaserve.KindPipeData); sent != 0 {
		t.Errorf("controller sent %d pipe.data messages, want 0: inputs ride the manifest", sent)
	}
	if got := tap.SentMsgs(jxtaserve.KindChunkFetch); int64(got) < snap.QuorumFetches {
		t.Errorf("controller sent %d chunk.fetch requests for %d fetched outputs", got, snap.QuorumFetches)
	}
	t.Logf("chunk.data recv=%dB chunk.fetch sent=%d run sent=%d", tap.Recv(jxtaserve.KindChunkData),
		tap.SentMsgs(jxtaserve.KindChunkFetch), tap.SentMsgs(jxtaserve.KindRPC+"/"+MethodRun))
}

// chaosByzantineQuorum runs the acceptance scenario on n, with the
// controller on ctlTr, and returns the controller's resilience stats.
// Its datums are wide, so every result comes home by reference and
// every commit fetches.
func chaosByzantineQuorum(t *testing.T, n *simnet.Network, ctlTr jxtaserve.Transport, prefix string) metrics.ResilienceSnapshot {
	t.Helper()
	const nChunks, perChunk = 4, 5
	chunks := bigChunks(chaosSeed, nChunks, perChunk, ladderBins)

	// Clean reference run: same topology, no faults, no quorum.
	refNet := simnet.New()
	refCtl, refPeers := quorumNet(t, refNet, prefix+"ref-", health.Options{})
	want := runChaosFarm(t, refCtl, refPeers, chunks, FarmOptions{})

	n.FaultSeed(7)
	ctl, peers := quorumNetOn(t, n, ctlTr, prefix, health.Options{})
	byz, dead := prefix+"w1", prefix+"w2"
	// w1 is byzantine: every result it returns is corrupted in flight.
	// w2 is dead before the farm starts: it refuses every dial at once,
	// so its one attempt's despatch exhausts the retry budget, and that
	// attempt alone both declares it dead and books its failure.
	n.SetLinkFaults(byz, simnet.LinkFaults{CorruptEvery: 1})
	n.Kill(dead)

	rep := runChaosFarm(t, ctl, peers, chunks, FarmOptions{Quorum: 3})

	if n.Corrupted() == 0 {
		t.Fatal("byzantine fault injection never fired; the test exercised nothing")
	}
	assertSameOutputs(t, rep.Outputs, want.Outputs)

	snap := ctl.Resilience().Snapshot()
	if snap.QuorumCommits != int64(nChunks) {
		t.Errorf("quorum commits = %d, want %d", snap.QuorumCommits, nChunks)
	}
	// Chunk 0's first electorate is w1 and w2 (listed order breaks the
	// tie among peers with no history). w2's failure is replaced by w3,
	// the w1/w3 split widens to w4, and w1 is outvoted. Later chunks
	// rank w1 and w2 last, so w3 and w4 agree at once.
	if rep.QuorumDisagreements != 1 || snap.QuorumDisagreements != rep.QuorumDisagreements {
		t.Errorf("quorum disagreements = %d (report) / %d (stats), want 1 and equal",
			rep.QuorumDisagreements, snap.QuorumDisagreements)
	}
	if rep.Redespatches != 2 {
		t.Errorf("redespatches = %d, want 2: one replacement and one widening, both in chunk 0", rep.Redespatches)
	}
	if rep.PeerChunks[byz] != 0 {
		t.Errorf("byzantine peer committed %d chunks", rep.PeerChunks[byz])
	}

	// The byzantine penalty must have pushed w1 below the suspicion
	// threshold — asserted via the registry gauges the /resilience page
	// renders.
	score := metrics.Default().Gauge(
		metrics.Series("health_peer_score", "observer", prefix+"ctl", "peer", byz)).Value()
	if score >= 0.5 {
		t.Errorf("byzantine peer score = %v, want < 0.5", score)
	}
	if !ctl.Health().Suspect(byz) {
		t.Error("byzantine peer not marked suspect")
	}
	// The dead peer's one attempt, in chunk 0, earned one dead verdict
	// and one failure, each decaying its score by 1 − alpha (0.3): the
	// verdict opens its breaker at once, so it is never tried again.
	if snap.PeersDeclaredDead != 1 {
		t.Errorf("%d peers declared dead, want exactly the dead one", snap.PeersDeclaredDead)
	}
	wantScore := 1.0
	for range 2 {
		wantScore *= 1 - 0.3
	}
	breaker := metrics.Default().Gauge(
		metrics.Series("health_breaker_state", "observer", prefix+"ctl", "peer", dead)).Value()
	deadScore := metrics.Default().Gauge(
		metrics.Series("health_peer_score", "observer", prefix+"ctl", "peer", dead)).Value()
	if breaker != float64(health.Open) || deadScore != wantScore {
		t.Errorf("dead peer breaker gauge = %v, score = %v, want %v (open) and %v",
			breaker, deadScore, float64(health.Open), wantScore)
	}
	if snap.QuorumFetches == 0 {
		t.Error("no chunk was committed by fetch")
	}
	t.Logf("corrupted=%d disagreements=%d redespatches=%d wasted=%d fetches=%d peers=%v",
		n.Corrupted(), rep.QuorumDisagreements, rep.Redespatches, rep.WastedOutputs, snap.QuorumFetches, rep.PeerChunks)
	return snap
}

// TestFarmSkipsDeclaredDeadPeer is the regression for the consult-dead-
// peers bug: a peer the failure detector has declared dead must not be
// consulted by FarmChunks at all — no redespatches burned on it — until
// a successful probe revives it.
func TestFarmSkipsDeclaredDeadPeer(t *testing.T) {
	n := simnet.New()
	ctl := newService(t, n.Peer("ds-ctl"), "ds-ctl", Options{
		Resilience: chaosResilience(),
		Health:     health.Options{OpenTimeout: 50 * time.Millisecond},
	})
	w1 := newService(t, n.Peer("ds-w1"), "ds-w1", Options{})
	w2 := newService(t, n.Peer("ds-w2"), "ds-w2", Options{})
	peers := []PeerRef{
		{ID: "ds-w1", Addr: w1.Addr()},
		{ID: "ds-w2", Addr: w2.Addr()},
	}

	// ds-w1 was declared dead (simulating an earlier attempt's
	// verdict). The farm must route everything to ds-w2 first try.
	ctl.Health().ReportDead("ds-w1")
	chunks := chaosChunks(chaosSeed, 3, 4)
	rep := runChaosFarm(t, ctl, peers, chunks, FarmOptions{})
	if rep.PeerChunks["ds-w1"] != 0 {
		t.Errorf("dead peer was consulted: %v", rep.PeerChunks)
	}
	if rep.PeerChunks["ds-w2"] != 3 {
		t.Errorf("healthy peer chunks = %v, want all 3", rep.PeerChunks)
	}
	if rep.Redespatches != 0 {
		t.Errorf("skipping a dead peer burned %d redespatches", rep.Redespatches)
	}

	// After the breaker cooldown the peer is half-open but still flagged
	// dead, so selection must ping-probe it before trusting it with a
	// chunk; the probe succeeds and the peer serves again.
	time.Sleep(80 * time.Millisecond)
	rep2 := runChaosFarm(t, ctl, []PeerRef{{ID: "ds-w1", Addr: w1.Addr()}}, chunks, FarmOptions{})
	if rep2.PeerChunks["ds-w1"] != 3 {
		t.Errorf("revived peer chunks = %v, want all 3", rep2.PeerChunks)
	}
	if ctl.Health().State("ds-w1") != health.Closed {
		t.Errorf("revived peer breaker = %v, want closed", ctl.Health().State("ds-w1"))
	}
}

// TestSpeculationWinsAndCancelsLoser: a slow peer trips the straggler
// detector, the backup attempt on the fast peer wins, and the losing
// attempt's remote job is cancelled on the slow worker — cancel
// propagation for racing attempts.
func TestSpeculationWinsAndCancelsLoser(t *testing.T) {
	n := simnet.New()
	ctl := newService(t, n.Peer("sp-ctl"), "sp-ctl", Options{Resilience: chaosResilience()})
	w1 := newService(t, n.Peer("sp-w1"), "sp-w1", Options{})
	w2 := newService(t, n.Peer("sp-w2"), "sp-w2", Options{})
	peers := []PeerRef{
		{ID: "sp-w1", Addr: w1.Addr()},
		{ID: "sp-w2", Addr: w2.Addr()},
	}
	// Every message on sp-w1's links crawls, so the first (stable-order)
	// attempt lands on sp-w1 and stalls past the threshold. The
	// threshold comfortably exceeds the despatch round-trip so the slow
	// worker has accepted its job before the race begins — the loser we
	// then expect to see cancelled.
	n.SetLinkFaults("sp-w1", simnet.LinkFaults{Latency: 30 * time.Millisecond})

	// 10 wide items, each fetched by reference at 30ms a message, mean
	// sp-w1 is still fetching inputs when the backup commits, so the
	// cancel catches its job mid-flight.
	chunks := bigChunks(chaosSeed, 1, 10, ladderBins)
	rep := runChaosFarm(t, ctl, peers, chunks, FarmOptions{
		Speculate:      true,
		SpeculateAfter: 200 * time.Millisecond,
	})
	if rep.SpeculationLaunches < 1 {
		t.Fatalf("straggler never triggered speculation: %+v", rep)
	}
	if rep.SpeculationWins < 1 || rep.PeerChunks["sp-w2"] != 1 {
		t.Fatalf("backup attempt did not win: %+v", rep)
	}
	if rep.Redespatches != 0 {
		t.Errorf("speculation counted as redespatch: %+v", rep)
	}

	// The loser's remote job on the slow worker must be cancelled, not
	// left running (Close's leak check, exercised in
	// TestCloseReapsBackgroundGoroutines, covers its attempt goroutine).
	deadline := time.Now().Add(5 * time.Second)
	for {
		var canceled bool
		for _, j := range w1.Jobs() {
			if j.State == gateway.Canceled {
				canceled = true
			}
		}
		if canceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("losing attempt's job never cancelled on sp-w1: %+v", w1.Jobs())
		}
		time.Sleep(10 * time.Millisecond)
	}

	snap := ctl.Resilience().Snapshot()
	if snap.SpeculationLaunches != rep.SpeculationLaunches || snap.SpeculationWins != rep.SpeculationWins {
		t.Errorf("registry counters diverge from report: %+v vs %+v", snap, rep)
	}
}

// TestFarmContextCancelMidChunk: cancelling the farm's context mid-chunk
// returns promptly with the context error, commits nothing beyond the
// already-committed chunks, and leaves no attempt running (FarmChunks
// waits for its losers before returning).
func TestFarmContextCancelMidChunk(t *testing.T) {
	n := simnet.New()
	ctl := newService(t, n.Peer("cc-ctl"), "cc-ctl", Options{Resilience: chaosResilience()})
	w1 := newService(t, n.Peer("cc-w1"), "cc-w1", Options{})
	peers := []PeerRef{{ID: "cc-w1", Addr: w1.Addr()}}
	// Slow the links so the cancel lands while chunk 1 is in flight.
	n.SetLinkFaults("cc-w1", simnet.LinkFaults{Latency: 10 * time.Millisecond})

	ctx, cancel := context.WithCancel(context.Background())
	const perChunk = 3
	chunks := chaosChunks(chaosSeed, 3, perChunk)
	start := time.Now()
	rep, err := ctl.FarmChunks(ctx, chunks, FarmOptions{
		Body:  func() *taskgraph.Graph { return accumBody(t) },
		Peers: peers,
		AfterChunk: func(c int) {
			if c == 0 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("cancelled farm took %v to return", time.Since(start))
	}
	if len(rep.Outputs) != perChunk {
		t.Errorf("cancelled farm committed %d outputs, want exactly chunk 0's %d",
			len(rep.Outputs), perChunk)
	}
	// Every sender/attempt goroutine was reaped before FarmChunks
	// returned, so no job on the worker stays live.
	deadline := time.Now().Add(5 * time.Second)
	for {
		live := false
		for _, j := range w1.Jobs() {
			if j.State != gateway.Done && j.State != gateway.Failed && j.State != gateway.Canceled {
				live = true
			}
		}
		if !live {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("uncommitted job still live after cancel: %+v", w1.Jobs())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAdmissionControl exercises the despatch budget directly: an
// over-budget acquire waits until a slot frees or the context dies,
// and tryAcquire never waits.
func TestAdmissionControl(t *testing.T) {
	a := newAdmission(1, "adm-test", nil)
	if err := a.acquire(context.Background(), nil, ""); err != nil {
		t.Fatal(err)
	}
	if a.tryAcquire("") {
		t.Error("tryAcquire succeeded over budget")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := a.acquire(ctx, nil, ""); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked acquire = %v, want deadline exceeded", err)
	}
	a.release("")
	if !a.tryAcquire("") {
		t.Error("tryAcquire failed with a free slot")
	}
	a.release("")
	if err := a.acquire(context.Background(), nil, ""); err != nil {
		t.Fatalf("acquire after release = %v", err)
	}
	a.release("")
}

// TestFarmWithinOneSlotBudget: Options.MaxInflightDespatches reaches
// the scheduler. With one slot, the farm's single primary attempt fits,
// so the farm completes, and while a slot is held the next acquire
// waits rather than despatching past the budget.
func TestFarmWithinOneSlotBudget(t *testing.T) {
	tr := simnet.New()
	ctl := newService(t, tr.Peer("sh-ctl"), "sh-ctl", Options{
		Resilience:            chaosResilience(),
		MaxInflightDespatches: 1,
	})
	w := newService(t, tr.Peer("sh-w1"), "sh-w1", Options{})

	rep := runChaosFarm(t, ctl, []PeerRef{{ID: "sh-w1", Addr: w.Addr()}},
		chaosChunks(chaosSeed, 2, 3), FarmOptions{})
	if len(rep.Outputs) != 6 {
		t.Fatalf("budgeted farm produced %d outputs", len(rep.Outputs))
	}

	if err := ctl.admit.acquire(context.Background(), nil, ""); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := ctl.admit.acquire(ctx, nil, ""); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("held-budget acquire = %v, want it to wait out its context", err)
	}
	ctl.admit.release("")
}

// TestQuorumInsufficientAgreement: with only one peer and Quorum:3 a
// majority of distinct voters is unreachable (one peer, one vote), so
// FarmChunks rejects the configuration up front — no despatches burned
// discovering the impossibility chunk by chunk.
func TestQuorumInsufficientAgreement(t *testing.T) {
	tr := simnet.New()
	ctl := newService(t, tr.Peer("qi-ctl"), "qi-ctl", Options{Resilience: chaosResilience()})
	w := newService(t, tr.Peer("qi-w1"), "qi-w1", Options{})

	_, err := ctl.FarmChunks(context.Background(), chaosChunks(chaosSeed, 1, 2), FarmOptions{
		Body:   func() *taskgraph.Graph { return accumBody(t) },
		Peers:  []PeerRef{{ID: "qi-w1", Addr: w.Addr()}},
		Quorum: 3,
	})
	if err == nil {
		t.Fatal("single-peer Quorum:3 farm committed without a majority")
	}
	if got := w.Jobs(); len(got) != 0 {
		t.Errorf("impossible quorum config still despatched %d jobs", len(got))
	}
}

// TestQuorumSplitVoteWidensAndCommits is the regression for the
// split-vote livelock: with Quorum:3 and two byzantine peers whose
// corruptions differ, chunk 0's first electorate (sv-w1, sv-w2) splits
// 1-1, and widening to sv-w3 splits it 1-1-1 with no digest at
// majority. The coordinator must widen again to the fourth (honest)
// peer — keeping the honest first ballot live so the pair forms the
// majority — rather than re-voting the same deadlocked round forever.
func TestQuorumSplitVoteWidensAndCommits(t *testing.T) {
	const nChunks, perChunk = 2, 4
	chunks := chaosChunks(chaosSeed, nChunks, perChunk)

	refNet := simnet.New()
	refCtl, refPeers := quorumNet(t, refNet, "svref-", health.Options{})
	want := runChaosFarm(t, refCtl, refPeers, chunks, FarmOptions{})

	n := simnet.New()
	ctl, peers := quorumNet(t, n, "sv-", health.Options{})
	// sv-w2 and sv-w3 tell different lies (simnet derives each link's
	// lie from its key), so their digests disagree
	// with the honest result AND with each other: chunk 0's first three
	// voters (sv-w1..w3 in rank order) are a guaranteed three-way split.
	n.SetLinkFaults("sv-w2", simnet.LinkFaults{CorruptEvery: 1})
	n.SetLinkFaults("sv-w3", simnet.LinkFaults{CorruptEvery: 1})

	type outcome struct {
		rep *FarmReport
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rep, err := ctl.FarmChunks(context.Background(), chunks, FarmOptions{
			Body:   func() *taskgraph.Graph { return accumBody(t) },
			Peers:  peers,
			Quorum: 3,
		})
		done <- outcome{rep, err}
	}()
	var res outcome
	select {
	case res = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("split-vote quorum farm hung (livelock regression)")
	}
	if res.err != nil {
		t.Fatalf("split-vote farm failed: %v (report: %+v)", res.err, res.rep)
	}
	rep := res.rep
	assertSameOutputs(t, rep.Outputs, want.Outputs)
	if rep.PeerChunks["sv-w2"] != 0 || rep.PeerChunks["sv-w3"] != 0 {
		t.Errorf("byzantine peer committed a chunk: %v", rep.PeerChunks)
	}
	// Chunk 0 widened twice, and its split contributed BOTH byzantine
	// ballots (only a widened electorate votes them down together).
	// Chunk 1 ranks the liars last, so its first electorate (sv-w1,
	// sv-w4) agrees at once.
	if rep.QuorumDisagreements != 2 || rep.Redespatches != 2 {
		t.Errorf("quorum disagreements = %d, redespatches = %d, want 2 and 2 (split round not widened twice?)",
			rep.QuorumDisagreements, rep.Redespatches)
	}
	t.Logf("disagreements=%d redespatches=%d wasted=%d peers=%v",
		rep.QuorumDisagreements, rep.Redespatches, rep.WastedOutputs, rep.PeerChunks)
	// Waste is tallied exactly once per losing ballot, at commit time —
	// never re-counted per vote pass: chunk 0 loses three ballots (two
	// byzantine, one agreeing duplicate) and chunk 1 one duplicate, of
	// perChunk outputs each.
	if want := int64((3 + 1) * perChunk); rep.WastedOutputs != want {
		t.Errorf("wasted outputs = %d, want %d (waste double-counted across vote passes?)",
			rep.WastedOutputs, want)
	}
}

// TestQuorumTerminalSplitFailsAndPenalizes: three voters, three
// distinct digests, and no fresh candidate to widen with — the vote is
// terminal. The chunk must fail promptly with the no-quorum error (not
// spin re-voting), and the voters outside the plurality take the
// byzantine penalty so a peer that repeatedly blocks quorum loses its
// selection rank instead of staying pristine.
func TestQuorumTerminalSplitFailsAndPenalizes(t *testing.T) {
	n := simnet.New()
	ctl := newService(t, n.Peer("ts-ctl"), "ts-ctl", Options{Resilience: chaosResilience()})
	var peers []PeerRef
	for _, label := range []string{"ts-w1", "ts-w2", "ts-w3"} {
		w := newService(t, n.Peer(label), label, Options{})
		peers = append(peers, PeerRef{ID: label, Addr: w.Addr()})
	}
	// All three tell different lies, each its link's own: three
	// ballots, three digests,
	// majority of 2 unreachable.
	n.SetLinkFaults("ts-w1", simnet.LinkFaults{CorruptEvery: 1})
	n.SetLinkFaults("ts-w2", simnet.LinkFaults{CorruptEvery: 1})
	n.SetLinkFaults("ts-w3", simnet.LinkFaults{CorruptEvery: 1})

	type outcome struct {
		rep *FarmReport
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rep, err := ctl.FarmChunks(context.Background(), chaosChunks(chaosSeed, 1, 6), FarmOptions{
			Body:   func() *taskgraph.Graph { return accumBody(t) },
			Peers:  peers,
			Quorum: 3,
		})
		done <- outcome{rep, err}
	}()
	var res outcome
	select {
	case res = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("terminal split-vote farm hung (livelock regression)")
	}
	if res.err == nil {
		t.Fatal("three-way split committed a chunk without a majority")
	}
	// Exactly the two non-plurality voters are penalized, and the
	// registry counter tracks the report.
	if res.rep.QuorumDisagreements != 2 {
		t.Errorf("quorum disagreements = %d, want 2", res.rep.QuorumDisagreements)
	}
	if snap := ctl.Resilience().Snapshot(); snap.QuorumDisagreements != res.rep.QuorumDisagreements {
		t.Errorf("registry disagreements = %d, report = %d", snap.QuorumDisagreements, res.rep.QuorumDisagreements)
	}
	penalized := 0
	for _, id := range []string{"ts-w1", "ts-w2", "ts-w3"} {
		if ctl.Health().Score(id) < 1 {
			penalized++
		}
	}
	if penalized < 2 {
		t.Errorf("only %d quorum-blocking peers lost health score, want >= 2", penalized)
	}
}

// TestStragglerRearmsAfterSkippedSpeculation: when the straggler timer
// fires while no backup peer is admissible (the only alternative's
// breaker is still open), the detector must keep watching instead of
// giving up for the rest of the chunk — once the breaker half-opens
// moments later, the re-armed timer probes the peer and launches the
// backup, which beats the crawling primary.
func TestStragglerRearmsAfterSkippedSpeculation(t *testing.T) {
	n := simnet.New()
	ctl := newService(t, n.Peer("ra-ctl"), "ra-ctl", Options{
		Resilience: chaosResilience(),
		Health:     health.Options{OpenTimeout: 60 * time.Millisecond},
	})
	w1 := newService(t, n.Peer("ra-w1"), "ra-w1", Options{})
	w2 := newService(t, n.Peer("ra-w2"), "ra-w2", Options{})
	peers := []PeerRef{
		{ID: "ra-w1", Addr: w1.Addr()},
		{ID: "ra-w2", Addr: w2.Addr()},
	}
	// The primary lands on crawling ra-w1 (ra-w2's breaker is open when
	// the chunk starts, and speculation never forces gated peers). The
	// straggler fires at 50ms into a multi-hundred-ms attempt, skips,
	// and must re-arm until ra-w2 half-opens at 60ms.
	n.SetLinkFaults("ra-w1", simnet.LinkFaults{Latency: 30 * time.Millisecond})
	ctl.Health().ReportDead("ra-w2")

	rep := runChaosFarm(t, ctl, peers, chaosChunks(chaosSeed, 1, 10), FarmOptions{
		Speculate:      true,
		SpeculateAfter: 50 * time.Millisecond,
	})
	if rep.SpeculationLaunches < 1 || rep.SpeculationWins < 1 {
		t.Fatalf("skipped speculation never retried: %+v", rep)
	}
	if rep.PeerChunks["ra-w2"] != 1 {
		t.Fatalf("backup on the revived peer did not win: %+v", rep.PeerChunks)
	}
}

// TestLatencyFeedsSpeculationThreshold: committed attempts feed the
// peer's latency window, so once history exists the straggler threshold
// derives from the observed p90 instead of the static fallback.
func TestLatencyFeedsSpeculationThreshold(t *testing.T) {
	tr := simnet.New()
	ctl := newService(t, tr.Peer("lt-ctl"), "lt-ctl", Options{Resilience: chaosResilience()})
	w := newService(t, tr.Peer("lt-w1"), "lt-w1", Options{})
	peers := []PeerRef{{ID: "lt-w1", Addr: w.Addr()}}

	runChaosFarm(t, ctl, peers, chaosChunks(chaosSeed, 4, 3), FarmOptions{})
	if _, ok := ctl.Health().LatencyQuantile("lt-w1", 0.9); !ok {
		t.Fatal("farm attempts recorded no latency samples")
	}
	opts := FarmOptions{SpeculateAfter: time.Hour}.withFarmDefaults(ctl.res)
	if got := ctl.stragglerThreshold("lt-w1", opts); got >= time.Hour {
		t.Errorf("threshold ignored observed latency: %v", got)
	}
	if got := ctl.stragglerThreshold("lt-nohistory", opts); got != time.Hour {
		t.Errorf("no-history threshold = %v, want the SpeculateAfter fallback", got)
	}
}

// TestFarmRejectsBodyShape: a body without exactly one external input
// and one external output is refused before anything is admitted or
// despatched, so no healthy donor is blamed for it.
func TestFarmRejectsBodyShape(t *testing.T) {
	n := simnet.New()
	tap := simnet.NewTap(n.Peer("bs-ctl"))
	ctl := newService(t, tap, "bs-ctl", Options{Resilience: chaosResilience()})
	var peers []PeerRef
	for _, label := range []string{"bs-w1", "bs-w2", "bs-w3"} {
		w := newService(t, n.Peer(label), label, Options{})
		peers = append(peers, PeerRef{ID: label, Addr: w.Addr()})
	}
	_, err := ctl.FarmChunks(context.Background(), chaosChunks(chaosSeed, 2, 3), FarmOptions{
		Body: func() *taskgraph.Graph {
			g := accumBody(t)
			g.ExternalOut = nil
			return g
		},
		Peers: peers,
	})
	if err == nil || !strings.Contains(err.Error(), "needs exactly one of each") {
		t.Fatalf("farm of a 0-output body: err = %v, want the shape refusal", err)
	}
	if runs := tap.SentMsgs("rpc/" + MethodRun); runs != 0 {
		t.Errorf("%d despatches for a refused body", runs)
	}
	for _, p := range peers {
		if score := ctl.Health().Score(p.ID); score != 1 {
			t.Errorf("%s score = %v after a refused farm, want 1", p.ID, score)
		}
	}
	if _, inflight := ctl.admit.counts(); inflight != 0 {
		t.Errorf("%d admission slots held after a refused farm", inflight)
	}
}

// TestFarmErrorNamesCause: when every attempt of a plain farm fails,
// the terminal error wraps the last attempt's, so a grid of busy
// donors reads as busy.
func TestFarmErrorNamesCause(t *testing.T) {
	n := simnet.New()
	ctl := newService(t, n.Peer("fc-ctl"), "fc-ctl", Options{Resilience: chaosResilience()})
	var peers []PeerRef
	for _, label := range []string{"fc-w1", "fc-w2"} {
		w := newService(t, n.Peer(label), label, Options{})
		w.SetAvailable(false)
		peers = append(peers, PeerRef{ID: label, Addr: w.Addr()})
	}
	_, err := ctl.FarmChunks(context.Background(), chaosChunks(chaosSeed, 1, 3), FarmOptions{
		Body:  func() *taskgraph.Graph { return accumBody(t) },
		Peers: peers,
	})
	if err == nil || !strings.Contains(err.Error(), "busy") {
		t.Fatalf("farm over busy donors: err = %v, want the donors' busy refusal", err)
	}
}
