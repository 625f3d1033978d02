package service

// The deterministic chaos harness: 3-peer distributed farms run under
// each injected fault class — message drops, latency jitter, timed
// partitions, and peer kill/restart mid-run — and must complete with
// outputs identical to the fault-free run at the same seed. Determinism
// rests on three properties of the resilience layer: a dropped message
// breaks its connection (failures are visible errors, never silent
// loss), chunk outputs commit only after full verification, and every
// replay restores the pre-chunk checkpoint state, so recovery recomputes
// exactly what was lost.

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"consumergrid/internal/churn"
	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/simnet"
	"consumergrid/internal/taskgraph"
	"consumergrid/internal/types"
)

// chaosResilience are fast-cycle retry knobs so fault recovery happens
// on test timescales.
func chaosResilience() ResilienceOptions {
	return ResilienceOptions{
		RequestTimeout: 2 * time.Second,
		MaxAttempts:    4,
		BaseDelay:      10 * time.Millisecond,
		MaxDelay:       80 * time.Millisecond,
	}
}

// chaosNet builds a controller plus three workers on one simulated
// network, each attributed to a peer label so kills and partitions can
// target them.
func chaosNet(t *testing.T, n *simnet.Network) (ctl *Service, peers []PeerRef) {
	t.Helper()
	ctl = newService(t, n.Peer("ctl"), "ctl", Options{Resilience: chaosResilience()})
	for _, label := range []string{"w1", "w2", "w3"} {
		w := newService(t, n.Peer(label), label, Options{})
		peers = append(peers, PeerRef{ID: label, Addr: w.Addr()})
	}
	return ctl, peers
}

// chaosChunks derives deterministic spectra chunks from a seed.
func chaosChunks(seed int64, nChunks, perChunk int) [][]types.Data {
	rng := rand.New(rand.NewSource(seed))
	chunks := make([][]types.Data, nChunks)
	for c := range chunks {
		for i := 0; i < perChunk; i++ {
			v := rng.Float64() * 100
			chunks[c] = append(chunks[c], &types.Spectrum{
				Resolution: 1, Amplitudes: []float64{v, 2 * v},
			})
		}
	}
	return chunks
}

// runChaosFarm farms the chunks through the stateful accumulator body.
func runChaosFarm(t *testing.T, ctl *Service, peers []PeerRef, chunks [][]types.Data, fo FarmOptions) *FarmReport {
	t.Helper()
	fo.Body = func() *taskgraph.Graph { return accumBody(t) }
	fo.Peers = peers
	rep, err := ctl.FarmChunks(context.Background(), chunks, fo)
	if err != nil {
		t.Fatalf("farm failed: %v (report: %+v)", err, rep)
	}
	return rep
}

// faultFreeBaseline computes the reference output stream of a plain
// farm of the chunks on a pristine network.
func faultFreeBaseline(t *testing.T, chunks [][]types.Data) []types.Data {
	t.Helper()
	n := simnet.New()
	ctl, peers := chaosNet(t, n)
	rep := runChaosFarm(t, ctl, peers, chunks, FarmOptions{})
	if rep.Redespatches != 0 || rep.WastedOutputs != 0 {
		t.Fatalf("fault-free run reported recovery work: %+v", rep)
	}
	return rep.Outputs
}

// assertSameOutputs deep-compares two spectra streams.
func assertSameOutputs(t *testing.T, got, want []types.Data) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("output count %d, want %d", len(got), len(want))
	}
	for i := range got {
		gs, ok1 := got[i].(*types.Spectrum)
		ws, ok2 := want[i].(*types.Spectrum)
		if !ok1 || !ok2 {
			t.Fatalf("output %d: not spectra (%T vs %T)", i, got[i], want[i])
		}
		if len(gs.Amplitudes) != len(ws.Amplitudes) {
			t.Fatalf("output %d: %d bins vs %d", i, len(gs.Amplitudes), len(ws.Amplitudes))
		}
		for b := range gs.Amplitudes {
			if gs.Amplitudes[b] != ws.Amplitudes[b] {
				t.Fatalf("output %d bin %d: %v != %v", i, b, gs.Amplitudes[b], ws.Amplitudes[b])
			}
		}
	}
}

const (
	chaosSeed     = 12345
	chaosChunksN  = 4
	chaosPerChunk = 5
)

// TestChaosDropFaults: every 13th message on every link direction is
// dropped, breaking its connection. The farm must still deliver the
// exact fault-free output stream. Its datums are wide, so donors fetch
// them by reference and their results come home by reference: an
// attempt is a handful of messages, and the fetches are most of them.
func TestChaosDropFaults(t *testing.T) {
	chunks := bigChunks(chaosSeed, chaosChunksN, chaosPerChunk, ladderBins)
	want := faultFreeBaseline(t, chunks)

	n := simnet.New()
	ctl, peers := chaosNet(t, n)
	n.SetLinkFaults("*", simnet.LinkFaults{DropEvery: 13})
	rep := runChaosFarm(t, ctl, peers, chunks, FarmOptions{ChunkAttempts: 24})

	if n.Dropped() == 0 {
		t.Fatal("fault injection never fired; the test exercised nothing")
	}
	assertSameOutputs(t, rep.Outputs, want)
	t.Logf("drops=%d redespatches=%d wasted=%d", n.Dropped(), rep.Redespatches, rep.WastedOutputs)
}

// TestChaosDelayJitter: seeded per-message latency + jitter on every
// link. Slower, but nothing may change in the results.
func TestChaosDelayJitter(t *testing.T) {
	want := faultFreeBaseline(t, chaosChunks(chaosSeed, chaosChunksN, chaosPerChunk))

	n := simnet.New()
	n.FaultSeed(42)
	ctl, peers := chaosNet(t, n)
	n.SetLinkFaults("*", simnet.LinkFaults{Latency: time.Millisecond, Jitter: 2 * time.Millisecond})
	rep := runChaosFarm(t, ctl, peers, chaosChunks(chaosSeed, chaosChunksN, chaosPerChunk), FarmOptions{})

	assertSameOutputs(t, rep.Outputs, want)
	if rep.Redespatches != 0 {
		t.Errorf("delay-only faults caused %d redespatches", rep.Redespatches)
	}
}

// TestChaosPartition: the controller starts partitioned from its first
// worker, so the first chunk must re-despatch across the split to a
// reachable peer; the partition heals mid-run.
func TestChaosPartition(t *testing.T) {
	want := faultFreeBaseline(t, chaosChunks(chaosSeed, chaosChunksN, chaosPerChunk))

	n := simnet.New()
	ctl, peers := chaosNet(t, n)
	n.PartitionFor(300*time.Millisecond, []string{"ctl"}, []string{"w1"})
	rep := runChaosFarm(t, ctl, peers, chaosChunks(chaosSeed, chaosChunksN, chaosPerChunk), FarmOptions{})

	if rep.Redespatches < 1 {
		t.Errorf("partition caused no redespatch (report %+v)", rep)
	}
	if rep.PeerChunks["w1"] == chaosChunksN {
		t.Error("all chunks landed on the partitioned peer")
	}
	assertSameOutputs(t, rep.Outputs, want)
}

// TestChaosKillMidRun: the worker that committed the first chunk is
// killed before the second despatches; the farm must move the remaining
// work to the surviving peers, restore the checkpoint, and produce the
// identical stream.
func TestChaosKillMidRun(t *testing.T) {
	want := faultFreeBaseline(t, chaosChunks(chaosSeed, chaosChunksN, chaosPerChunk))

	n := simnet.New()
	ctl, peers := chaosNet(t, n)
	rep := runChaosFarm(t, ctl, peers, chaosChunks(chaosSeed, chaosChunksN, chaosPerChunk),
		FarmOptions{
			AfterChunk: func(c int) {
				if c == 0 {
					n.Kill("w1")
				}
			},
		})

	if rep.Redespatches < 1 {
		t.Errorf("kill caused no redespatch (report %+v)", rep)
	}
	if rep.PeerChunks["w1"] == 0 {
		t.Error("first chunk did not land on w1; kill hook targeted the wrong peer")
	}
	if rep.PeerChunks["w2"]+rep.PeerChunks["w3"] == 0 {
		t.Error("no chunk moved to a surviving peer")
	}
	assertSameOutputs(t, rep.Outputs, want)
}

// TestChaosChurnTraceKillRestart: a churn timeline takes w1 down and
// back up while the farm runs — the §3.6.2 availability model driving
// live faults. Per-message latency slows the farm enough that the
// downtime lands mid-run, forcing at least one re-despatch; the output
// stream must still match the fault-free run exactly.
func TestChaosChurnTraceKillRestart(t *testing.T) {
	want := faultFreeBaseline(t, chaosChunks(chaosSeed, 6, chaosPerChunk))

	n := simnet.New()
	ctl, peers := chaosNet(t, n)
	// ~2ms per message keeps the farm busy well past the kill at 50ms.
	n.SetLinkFaults("*", simnet.LinkFaults{Latency: 2 * time.Millisecond})
	tr := &churn.Trace{Horizon: 4, Intervals: []churn.Interval{
		{Start: 0, End: 0.5, Up: true},
		{Start: 0.5, End: 2, Up: false},
		{Start: 2, End: 4, Up: true},
	}}
	stop := n.DriveTrace(tr, "w1", 100*time.Millisecond)
	defer stop()
	rep := runChaosFarm(t, ctl, peers, chaosChunks(chaosSeed, 6, chaosPerChunk), FarmOptions{})

	if rep.Redespatches < 1 {
		t.Errorf("churn downtime caused no redespatch (peers=%v)", rep.PeerChunks)
	}
	assertSameOutputs(t, rep.Outputs, want)
	t.Logf("churn-trace run: redespatches=%d wasted=%d peers=%v",
		rep.Redespatches, rep.WastedOutputs, rep.PeerChunks)
}

// TestDespatchRetriesDialFailures: a despatch that first meets a dead
// peer link succeeds once the link is restored within the retry budget,
// and the retry counter records the extra attempts.
func TestDespatchRetriesDialFailures(t *testing.T) {
	n := simnet.New()
	ctl := newService(t, n.Peer("ctl"), "ctl", Options{Resilience: ResilienceOptions{
		MaxAttempts: 5, BaseDelay: 40 * time.Millisecond, MaxDelay: 80 * time.Millisecond,
	}})
	w := newService(t, n.Peer("w1"), "w1", Options{})

	n.Kill("w1")
	time.AfterFunc(60*time.Millisecond, func() { n.Restart("w1") })

	pipe, _, err := ctl.Host().OpenInput("retry-sink", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	pipe.ExpectEOFs(1)
	job, err := ctl.Despatch(RemotePart{
		Peer:       PeerRef{ID: "w1", Addr: w.Addr()},
		Body:       accumBody(t),
		InLabels:   []string{"retry-in"},
		OutTargets: []PipeTarget{{Label: "retry-sink", Addr: ctl.Addr()}},
		Iterations: 1,
	}, "")
	if err != nil {
		t.Fatalf("despatch did not survive the transient outage: %v", err)
	}
	if got := ctl.Resilience().Snapshot().Retries; got == 0 {
		t.Error("no retries recorded for the transient outage")
	}
	out, err := ctl.Host().BindOutput(job.InAds[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Send(&types.Spectrum{Resolution: 1, Amplitudes: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	out.Close()
	for range pipe.C {
	}
	if _, err := ctl.WaitRemote(job); err != nil {
		t.Fatal(err)
	}
}

// TestRunErrorsDoNotRetry: a remote handler rejection (RPCError) must
// fail immediately — retrying a semantic refusal is pointless and a
// duplicate triana.run would double-execute.
func TestRunErrorsDoNotRetry(t *testing.T) {
	tr := jxtaserve.NewInProc()
	ctl := newService(t, tr, "ctl", Options{})
	w := newService(t, tr, "w1", Options{RequireCode: true})

	_, err := ctl.Despatch(RemotePart{
		Peer:       PeerRef{ID: "w1", Addr: w.Addr()},
		Body:       accumBody(t),
		InLabels:   []string{"norun-in"},
		OutTargets: []PipeTarget{{Label: "norun-sink", Addr: ctl.Addr()}},
		Iterations: 1,
	}, "")
	if err == nil {
		t.Fatal("despatch to RequireCode peer without codeAddr succeeded")
	}
	if got := ctl.Resilience().Snapshot().Retries; got != 0 {
		t.Errorf("remote rejection was retried %d times", got)
	}
}

// TestRestartRecoveryResumesCheckpointedFarm is the crash-safety
// acceptance case: a controller with a state dir dies (context cancel)
// after committing two chunks of a four-chunk farm. A fresh daemon
// started over the same state dir restores the farm journal, replays
// the committed outputs byte for byte, resumes despatching at chunk 2,
// and the full output stream equals the fault-free baseline. The
// resumed run despatches only the remaining chunks — nothing is
// double-billed to the donors.
func TestRestartRecoveryResumesCheckpointedFarm(t *testing.T) {
	want := faultFreeBaseline(t, chaosChunks(chaosSeed, chaosChunksN, chaosPerChunk))
	stateDir := t.TempDir()
	chunks := chaosChunks(chaosSeed, chaosChunksN, chaosPerChunk)

	// Incarnation 1: crash mid-farm, after chunk index 1 commits (and
	// its per-commit checkpoint hits the state dir).
	n1 := simnet.New()
	ctl1 := newService(t, n1.Peer("rr-ctl"), "rr-ctl", Options{
		Resilience: chaosResilience(), StateDir: stateDir, CheckpointInterval: -1,
	})
	var peers1 []PeerRef
	for _, label := range []string{"w1", "w2", "w3"} {
		w := newService(t, n1.Peer(label), label, Options{})
		peers1 = append(peers1, PeerRef{ID: label, Addr: w.Addr()})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := ctl1.FarmChunks(ctx, chunks, FarmOptions{
		Body:      func() *taskgraph.Graph { return accumBody(t) },
		Peers:     peers1,
		ResumeKey: "rr-farm",
		AfterChunk: func(c int) {
			if c == 1 {
				cancel()
			}
		},
	})
	if err == nil {
		t.Fatal("crashed incarnation reported a completed farm")
	}
	ctl1.Close()

	// Incarnation 2: a fresh network (the old donors are gone with the
	// old process), same peer ID, same state dir.
	n2 := simnet.New()
	ctl2 := newService(t, n2.Peer("rr-ctl"), "rr-ctl", Options{
		Resilience: chaosResilience(), StateDir: stateDir, CheckpointInterval: -1,
	})
	var peers2 []PeerRef
	for _, label := range []string{"w1", "w2", "w3"} {
		w := newService(t, n2.Peer(label), label, Options{})
		peers2 = append(peers2, PeerRef{ID: label, Addr: w.Addr()})
	}
	rep, err := ctl2.FarmChunks(context.Background(), chunks, FarmOptions{
		Body:      func() *taskgraph.Graph { return accumBody(t) },
		Peers:     peers2,
		ResumeKey: "rr-farm",
	})
	if err != nil {
		t.Fatalf("resumed farm failed: %v (report %+v)", err, rep)
	}
	if rep.ResumedChunks != 2 {
		t.Fatalf("resumed %d chunks from the journal, want 2", rep.ResumedChunks)
	}
	assertSameOutputs(t, rep.Outputs, want)
	despatched := 0
	for _, c := range rep.PeerChunks {
		despatched += c
	}
	if despatched != chaosChunksN-rep.ResumedChunks {
		t.Fatalf("resumed run despatched %d chunks, want %d (journal chunks must not re-despatch)",
			despatched, chaosChunksN-rep.ResumedChunks)
	}

	// Third incarnation: the completed farm's journal was cleared, so
	// the same key starts fresh rather than replaying stale outputs.
	rep3, err := ctl2.FarmChunks(context.Background(), chunks, FarmOptions{
		Body:      func() *taskgraph.Graph { return accumBody(t) },
		Peers:     peers2,
		ResumeKey: "rr-farm",
	})
	if err != nil {
		t.Fatalf("re-run after completion failed: %v", err)
	}
	if rep3.ResumedChunks != 0 {
		t.Fatalf("completed farm's journal leaked: resumed %d chunks", rep3.ResumedChunks)
	}
	assertSameOutputs(t, rep3.Outputs, want)
}
