package service

// Property: re-despatch is idempotent, whatever the chunk runner's
// parameters. For any seed, a farm whose worker is killed mid-run —
// forcing a chunk to fail, be discarded, and replay on an alternate
// peer with the checkpointed state restored — while another worker
// crawls, produces the same committed output stream AND the same final
// checkpoint as the uninterrupted run, under plain, speculative and
// quorum farming alike. This is the §3.6.2 migration guarantee the
// chaos harness relies on, checked across seeds — together with the
// books every such run must balance: each launch is one despatch, each
// accepted despatch ends resolved on its donor, every output a donor
// returned is either committed or counted wasted, and nothing (slot or
// goroutine) outlives FarmChunks.

import (
	"bytes"
	"runtime"
	"strconv"
	"testing"
	"time"

	"consumergrid/internal/gateway"
	"consumergrid/internal/health"
	"consumergrid/internal/simnet"
	"consumergrid/internal/types"
)

func TestRedespatchIdempotencyProperty(t *testing.T) {
	const nChunks, perChunk = 3, 4
	// primaries is each chunk's first electorate: one attempt, or a
	// quorum's majority — two of three voters.
	modes := []struct {
		name      string
		primaries int
		fo        FarmOptions
	}{
		{"plain", 1, FarmOptions{}},
		{"speculate", 1, FarmOptions{Speculate: true, SpeculateAfter: 30 * time.Millisecond}},
		{"quorum3", 2, FarmOptions{Quorum: 3}},
	}
	for _, seed := range []int64{1, 7, 42, 1000003, 987654321} {
		t.Run(formatSeed(seed), func(t *testing.T) {
			chunks := chaosChunks(seed, nChunks, perChunk)
			// Uninterrupted reference run, shared by every mode.
			refCtl, refPeers := quorumNet(t, simnet.New(), "ref-", health.Options{})
			ref := runChaosFarm(t, refCtl, refPeers, chunks, FarmOptions{Seed: seed})
			for _, mode := range modes {
				t.Run(mode.name, func(t *testing.T) {
					redespatchUnderFaults(t, seed, chunks, ref, mode.primaries, mode.fo)
				})
			}
		})
	}
}

// redespatchUnderFaults runs one faulted farm — the seed picks a
// crawling worker among w2..w4, and the chunk-0 worker dies before
// chunk 1; three workers stay up, so a quorum of 3 always seats — and
// checks it against the uninterrupted reference and its own books.
func redespatchUnderFaults(t *testing.T, seed int64, chunks [][]types.Data, ref *FarmReport, primaries int, fo FarmOptions) {
	n := simnet.New()
	ctl := newService(t, n.Peer("rp-ctl"), "rp-ctl", Options{Resilience: chaosResilience()})
	var peers []PeerRef
	var workers []*Service
	for _, label := range []string{"rp-w1", "rp-w2", "rp-w3", "rp-w4"} {
		w := newService(t, n.Peer(label), label, Options{})
		workers = append(workers, w)
		peers = append(peers, PeerRef{ID: label, Addr: w.Addr()})
	}
	n.SetLinkFaults(peers[1+int(seed%3)].ID, simnet.LinkFaults{Latency: 5 * time.Millisecond})

	despatched, refused := despatchesTotal.Value(), despatchFailures.Value()
	hosted := make([]int64, len(workers))
	for i, w := range workers {
		hosted[i] = w.jobsHosted.Value()
	}
	// A mux session outlives the farm that opened it, by design: one
	// demux goroutine per side per peer pair. Open them before the
	// baseline, so it counts only what the farm itself starts.
	for _, p := range peers {
		if _, err := ctl.host.Request(p.Addr, MethodPing, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	goroutines := runtime.NumGoroutine()

	fo.Seed = seed
	fo.AfterChunk = func(c int) {
		if c == 0 {
			n.Kill("rp-w1")
		}
	}
	rep := runChaosFarm(t, ctl, peers, chunks, fo)

	// The dead worker's chunk is recovered by a replacement primary —
	// or, when the straggler timer beats the despatch retries to the
	// verdict, by a winning backup.
	if rep.Redespatches+rep.SpeculationWins < 1 {
		t.Fatalf("kill caused no redespatch: %+v", rep)
	}
	assertSameOutputs(t, rep.Outputs, ref.Outputs)
	assertSameBytes(t, rep.Outputs, ref.Outputs)
	assertSameState(t, rep.FinalState, ref.FinalState)

	// Nothing outlives FarmChunks: no admission slot...
	if _, inflight := ctl.admit.counts(); inflight != 0 {
		t.Errorf("%d admission slots still held after FarmChunks returned", inflight)
	}
	// ...and every accepted despatch is resolved on its donor: no
	// donor has a live job left, and each one it hosted ended.
	eventually(t, "every donor's hosted jobs to end", func() bool {
		for _, w := range workers {
			if w.liveJobs() != 0 {
				return false
			}
		}
		return true
	})
	var jobs []JobInfo
	var hostedJobs int64
	for i, w := range workers {
		hostedJobs += w.jobsHosted.Value() - hosted[i]
		jobs = append(jobs, w.Jobs()...)
	}
	for _, j := range jobs {
		if !j.State.Terminal() {
			t.Errorf("job %s is %v with no live jobs on its donor", j.ID, j.State)
		}
	}

	// Despatch books. The runner's own count of launches
	// (first-round primaries, replacements, backups) equals the
	// despatch calls the wire saw, accepted or refused; and the
	// accepted ones equal the jobs donors hosted (their
	// service_jobs_hosted_total series), each of which ended as a
	// commit or duplicate ballot (Done), a failed attempt (Failed) or
	// an abandoned one (Canceled).
	despatched = despatchesTotal.Value() - despatched
	refused = despatchFailures.Value() - refused
	launched := int64(len(chunks)*primaries) + rep.Redespatches + rep.SpeculationLaunches
	if despatched+refused != launched {
		t.Errorf("despatches %d accepted + %d refused != %d launches on the runner's books (%+v)",
			despatched, refused, launched, rep)
	}
	if despatched != hostedJobs {
		t.Errorf("service_despatches_total moved %d, donors hosted %d jobs", despatched, hostedJobs)
	}
	// The waste books below read every job from Jobs, which keeps the
	// most recent maxEndedJobs ended ones: far more than one farm hosts.
	if int64(len(jobs)) != hostedJobs {
		t.Errorf("donors list %d jobs, hosted %d", len(jobs), hostedJobs)
	}

	// Waste books: outputs returned minus outputs committed. A job that
	// ran to completion returned everything it produced; a cancelled
	// one reports no count and may have been cut off anywhere in its
	// chunk, so it only widens the upper bound.
	var returned, produced int64
	for _, j := range jobs {
		returned += int64(j.Processed)
		produced += int64(j.Processed)
		if j.State == gateway.Canceled {
			produced += int64(len(chunks[0]))
		}
	}
	committed := int64(len(rep.Outputs))
	if rep.WastedOutputs < returned-committed || rep.WastedOutputs > produced-committed {
		t.Errorf("WastedOutputs = %d, want within [%d, %d] (returned %d, produced %d, committed %d)",
			rep.WastedOutputs, returned-committed, produced-committed, returned, produced, committed)
	}
	if snap := ctl.Resilience().Snapshot(); snap.WastedItems != rep.WastedOutputs ||
		snap.Redespatches != rep.Redespatches {
		t.Errorf("registry diverges from report: %+v vs %+v", snap, rep)
	}

	eventually(t, "goroutines to return to the pre-farm baseline", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= goroutines+2
	})
}

// eventually polls cond until it holds, failing the test after 5s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("timed out waiting for %s\n%s", what, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// assertSameBytes compares two output streams on the wire encoding.
func assertSameBytes(t *testing.T, got, want []types.Data) {
	t.Helper()
	for i := range want {
		g, err := types.Marshal(got[i])
		if err != nil {
			t.Fatal(err)
		}
		w, err := types.Marshal(want[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("output %d is not byte-identical to the reference", i)
		}
	}
}

// TestRedespatchStateCarryMatchesMigration: the farm's chunk-to-chunk
// state carry is the same mechanism as explicit migration — feeding the
// farm's final checkpoint into a fresh despatch continues the
// accumulation exactly.
func TestRedespatchStateCarryMatchesMigration(t *testing.T) {
	const seed = 99
	chunks := chaosChunks(seed, 2, 5)
	n := simnet.New()
	ctl, peers := chaosNet(t, n)
	rep := runChaosFarm(t, ctl, peers, chunks, FarmOptions{Seed: seed})
	if len(rep.FinalState) == 0 {
		t.Fatal("farm over a stateful body returned no checkpoint")
	}

	// Continue on a fresh peer with the farm's checkpoint; the running
	// average must continue from all 10 farmed spectra, not restart.
	cont, _ := feedSpectra(t, ctl, peers[1], "carry-sink", "carry-in", 1, 50, rep.FinalState)

	// Reference: one uninterrupted accumulation over the same 11 inputs.
	var all []types.Data
	for _, c := range chunks {
		all = append(all, c...)
	}
	refNet := simnet.New()
	refCtl, refPeers := chaosNet(t, refNet)
	refRep := runChaosFarm(t, refCtl, refPeers, [][]types.Data{all}, FarmOptions{Seed: seed})
	refCont, _ := feedSpectra(t, refCtl, refPeers[1], "carry-ref-sink", "carry-ref-in", 1, 50, refRep.FinalState)

	assertSameOutputs(t, []types.Data{cont}, []types.Data{refCont})
}

func assertSameState(t *testing.T, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("state keys %d, want %d (%v vs %v)", len(got), len(want), keys(got), keys(want))
	}
	for k, w := range want {
		if !bytes.Equal(got[k], w) {
			t.Fatalf("state[%q] diverges after re-despatch: %x vs %x", k, got[k], w)
		}
	}
}

func keys(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func formatSeed(seed int64) string {
	return "seed" + strconv.FormatInt(seed, 10)
}
