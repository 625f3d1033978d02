package service

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/policy"
	"consumergrid/internal/simnet"
	"consumergrid/internal/taskgraph"
	"consumergrid/internal/trace"
)

// TestDistributedRunProducesTrace drives a real despatch over InProc and
// asserts the full span tree lands in the process recorder: despatch at
// the root, transfer and result as its children, the remote execute
// linked through the injected headers, and per-unit spans under execute.
func TestDistributedRunProducesTrace(t *testing.T) {
	tr := jxtaserve.NewInProc()
	ctl := newService(t, tr, "trace-ctl", Options{})
	w1 := newService(t, tr, "trace-w1", Options{})

	g := figure1(t, policy.NameParallel)
	plan := &policy.Plan{Kind: policy.KindParallel, Replicas: []string{"trace-w1"}}
	peers := map[string]PeerRef{"trace-w1": {ID: "trace-w1", Addr: w1.Addr()}}
	if _, err := ctl.RunDistributed(context.Background(), g, "GroupTask", plan, peers,
		DistOptions{Iterations: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}

	// The recorder is process-global and other tests record into it too;
	// find our trace by its root despatch span's peer.
	rec := trace.Default()
	var spans []trace.Span
	for _, id := range rec.TraceIDs() {
		candidate := rec.Trace(id)
		for _, sp := range candidate {
			if sp.Name == "despatch" && sp.Peer == "trace-ctl" {
				spans = candidate
			}
		}
		if spans != nil {
			break
		}
	}
	if spans == nil {
		t.Fatal("no despatch trace recorded for trace-ctl")
	}

	byName := make(map[string]trace.Span)
	units := 0
	for _, sp := range spans {
		if strings.HasPrefix(sp.Name, "unit:") {
			units++
			continue
		}
		byName[sp.Name] = sp
	}
	despatch, ok := byName["despatch"]
	if !ok || despatch.Parent != "" {
		t.Fatalf("despatch span missing or not a root: %+v", despatch)
	}
	xfer, ok := byName["transfer"]
	if !ok || xfer.Parent != despatch.SpanID {
		t.Errorf("transfer not a child of despatch: %+v", xfer)
	}
	exec, ok := byName["execute"]
	if !ok || exec.Parent != xfer.SpanID {
		t.Errorf("execute not linked through the injected transfer span: %+v", exec)
	}
	if exec.Peer != "trace-w1" {
		t.Errorf("execute ran on %q, want trace-w1", exec.Peer)
	}
	result, ok := byName["result"]
	if !ok || result.Parent != despatch.SpanID {
		t.Errorf("result not a child of despatch: %+v", result)
	}
	// The group body is Gaussian -> PowerSpec: both units span under
	// execute on the worker.
	if units < 2 {
		t.Errorf("recorded %d unit spans, want >= 2", units)
	}
	for _, sp := range spans {
		if sp.TraceID != despatch.TraceID {
			t.Errorf("span %s carries trace %s, want %s", sp.Name, sp.TraceID, despatch.TraceID)
		}
	}
}

// TestObservabilityRPCs pulls metrics and traces off a peer over the
// same jxtaserve surface the despatch protocol uses.
func TestObservabilityRPCs(t *testing.T) {
	tr := jxtaserve.NewInProc()
	ctl := newService(t, tr, "obs-ctl", Options{})
	w1 := newService(t, tr, "obs-w1", Options{})

	g := figure1(t, policy.NameParallel)
	plan := &policy.Plan{Kind: policy.KindParallel, Replicas: []string{"obs-w1"}}
	peers := map[string]PeerRef{"obs-w1": {ID: "obs-w1", Addr: w1.Addr()}}
	if _, err := ctl.RunDistributed(context.Background(), g, "GroupTask", plan, peers,
		DistOptions{Iterations: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}

	reply, err := ctl.Host().Request(w1.Addr(), MethodMetrics, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := reply.Header("peer"); got != "obs-w1" {
		t.Errorf("metrics peer header = %q", got)
	}
	body := string(reply.Payload)
	for _, series := range []string{
		"service_despatches_total",
		"service_jobs_hosted_total",
		"jxtaserve_messages_sent_total",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("metrics payload missing %s", series)
		}
	}

	reply, err = ctl.Host().Request(w1.Addr(), MethodTraces, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(reply.Payload), "despatch") {
		t.Errorf("traces payload carries no despatch span:\n%s", reply.Payload)
	}
}

// TestCloseReapsBackgroundGoroutines is the leak regression: a full
// despatch round must leave no goroutines behind once both services
// Close, the sessions' keepalive timers included. Before the lifecycle
// ownership work, output senders and failure-detector loops survived
// their service.
func TestCloseReapsBackgroundGoroutines(t *testing.T) {
	tr := jxtaserve.NewInProc()
	before := runtime.NumGoroutine()

	ctl := newService(t, tr, "leak-ctl", Options{})
	w1 := newService(t, tr, "leak-w1", Options{})

	g := figure1(t, policy.NameParallel)
	plan := &policy.Plan{Kind: policy.KindParallel, Replicas: []string{"leak-w1"}}
	peers := map[string]PeerRef{"leak-w1": {ID: "leak-w1", Addr: w1.Addr()}}
	if _, err := ctl.RunDistributed(context.Background(), g, "GroupTask", plan, peers,
		DistOptions{Iterations: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}

	// A despatch that never reaches its peer exercises the error-path
	// cleanup too (bridges and bound pipes torn down mid-flight).
	badPlan := &policy.Plan{Kind: policy.KindParallel, Replicas: []string{"ghost"}}
	badPeers := map[string]PeerRef{"ghost": {ID: "ghost", Addr: "nowhere"}}
	if _, err := ctl.RunDistributed(context.Background(), figure1(t, policy.NameParallel),
		"GroupTask", badPlan, badPeers, DistOptions{Iterations: 2, Seed: 1}); err == nil {
		t.Fatal("despatch to unreachable peer succeeded")
	}

	// Racing speculative attempts: a slow straggler, fetching its wide
	// inputs over a crawling link, loses to a backup mid-flight, so its
	// attempt goroutine and remote job both go through the
	// abandoned-loser path. FarmChunks reaps the losers
	// before returning; Close must find nothing extra.
	n := simnet.New()
	raceCtl := newService(t, n.Peer("leak-race-ctl"), "leak-race-ctl",
		Options{Resilience: chaosResilience()})
	raceW1 := newService(t, n.Peer("leak-race-w1"), "leak-race-w1", Options{})
	raceW2 := newService(t, n.Peer("leak-race-w2"), "leak-race-w2", Options{})
	n.SetLinkFaults("leak-race-w1", simnet.LinkFaults{Latency: 20 * time.Millisecond})
	rep, err := raceCtl.FarmChunks(context.Background(), bigChunks(1, 1, 8, ladderBins), FarmOptions{
		Body:           func() *taskgraph.Graph { return accumBody(t) },
		Peers:          []PeerRef{{ID: "leak-race-w1", Addr: raceW1.Addr()}, {ID: "leak-race-w2", Addr: raceW2.Addr()}},
		Speculate:      true,
		SpeculateAfter: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("racing farm failed: %v", err)
	}
	if rep.SpeculationLaunches == 0 {
		t.Fatal("racing farm never speculated; the leak path was not exercised")
	}
	raceW2.Close()
	raceW1.Close()
	raceCtl.Close()

	w1.Close()
	ctl.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		// GC nudges finalizer goroutines along; a small tolerance covers
		// runtime-internal goroutines that come and go.
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines did not settle: before=%d now=%d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
