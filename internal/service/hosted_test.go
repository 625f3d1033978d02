package service

// The hosted-job lifecycle: a job is live until it ends, then only its
// compact wait reply is kept, in a FIFO bounded by maxEndedJobs and
// maxEndedPayloadBytes. Waits answer from that record, so a retried
// wait sees the same reply; a wait for an evicted record gets "unknown
// job" and the chunk runner redespatches.

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"consumergrid/internal/engine"
	"consumergrid/internal/gateway"
	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/metrics"
	"consumergrid/internal/policy"
	"consumergrid/internal/simnet"
	"consumergrid/internal/taskgraph"
	"consumergrid/internal/types"
	"consumergrid/internal/units"
	"consumergrid/internal/units/signal"
	"consumergrid/internal/units/unitio"
)

// TestHandleRunClosingReleasesPipes: a run request that reaches a
// closing daemon after binding its pipes releases the output pipes as
// well as the inputs — the bound target sees its EOF.
func TestHandleRunClosingReleasesPipes(t *testing.T) {
	tr := jxtaserve.NewInProc()
	ctl := newService(t, tr, "hc-ctl", Options{})
	w := newService(t, tr, "hc-w", Options{})
	sink, _, err := ctl.Host().OpenInput("hc-sink", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	sink.ExpectEOFs(1)

	xml, err := accumBody(t).EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	req := &jxtaserve.Message{Payload: encodeRunPayload(xml, nil, nil)}
	req.SetHeader("from", "hc-ctl")
	req.SetHeader("in.count", "1")
	req.SetHeader("in.0.label", "hc-in")
	req.SetHeader("out.count", "1")
	req.SetHeader("out.0.label", "hc-sink")
	req.SetHeader("out.0.addr", ctl.Addr())

	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	_, err = w.handleRun(req)
	w.mu.Lock()
	w.closed = false // let the test's Close run in full
	w.mu.Unlock()
	if err == nil {
		t.Fatal("a closing daemon accepted a job")
	}

	select {
	case _, ok := <-sink.C:
		if ok {
			t.Fatal("the abandoned job sent data")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the abandoned job's output pipe was never closed")
	}
	in, _, err := w.Host().OpenInput("hc-in", 1)
	if err != nil {
		t.Fatalf("the abandoned job's input label is still held: %v", err)
	}
	in.Close()
	if n := w.liveJobs(); n != 0 {
		t.Fatalf("%d live jobs after a refused run", n)
	}
}

// TestHostedJobsAreReaped: a donor that has hosted more than
// maxEndedJobs jobs lists at most that many, has none live, and its
// per-peer hosted counter still counts every one.
func TestHostedJobsAreReaped(t *testing.T) {
	tr := jxtaserve.NewInProc()
	ctl := newService(t, tr, "hr-ctl", Options{})
	w := newService(t, tr, "hr-w", Options{})
	peers := []PeerRef{{ID: "hr-w", Addr: w.Addr()}}
	before := w.jobsHosted.Value()

	const perFarm = 8
	farms := maxEndedJobs/perFarm + 2
	for f := 0; f < farms; f++ {
		runChaosFarm(t, ctl, peers, chaosChunks(int64(f), perFarm, 1), FarmOptions{})
	}
	eventually(t, "the donor's jobs to end", func() bool { return w.liveJobs() == 0 })

	if got, want := w.jobsHosted.Value()-before, int64(farms*perFarm); got != want {
		t.Fatalf("service_jobs_hosted_total moved %d, want %d", got, want)
	}
	jobs := w.Jobs()
	if len(jobs) != maxEndedJobs {
		t.Fatalf("Jobs lists %d jobs, want the %d most recent", len(jobs), maxEndedJobs)
	}
	for _, j := range jobs {
		if j.State != gateway.Done {
			t.Fatalf("job %s is %v", j.ID, j.State)
		}
	}
	gauge := metrics.Default().Gauge(metrics.Series("service_jobs_live", "peer", "hr-w"))
	if v := gauge.Value(); v != 0 {
		t.Fatalf("service_jobs_live = %v after every job ended", v)
	}
	w.mu.Lock()
	ended, queued := len(w.ended), len(w.endedQ)
	w.mu.Unlock()
	if ended != queued || ended != maxEndedJobs {
		t.Fatalf("ended records: %d indexed, %d queued, want %d", ended, queued, maxEndedJobs)
	}
	// The oldest were evicted: job-1 is gone, the newest is answered.
	if _, _, err := w.findJob("hr-w/job-1"); err == nil {
		t.Fatal("the oldest ended job was not evicted")
	}
	if _, rec, err := w.findJob("hr-w/job-" + strconv.Itoa(farms*perFarm)); err != nil || rec == nil {
		t.Fatalf("the newest ended job is not retained: %v", err)
	}
}

// TestHostedJobRetentionByteCap: checkpoint payloads count against
// maxEndedPayloadBytes, oldest evicted first, and the newest record
// stays even when it alone is over the cap.
func TestHostedJobRetentionByteCap(t *testing.T) {
	w := newService(t, jxtaserve.NewInProc(), "hp-w", Options{})
	end := func(id string, stateBytes int) {
		res := &engine.Result{State: map[string][]byte{"Accum": make([]byte, stateBytes)}}
		w.endJob(&job{id: id}, nil, res, nil)
	}
	const blob = maxEndedPayloadBytes / 4
	for i := 0; i < 6; i++ {
		end("hp-w/job-"+strconv.Itoa(i), blob)
	}
	w.mu.Lock()
	kept, payload := len(w.endedQ), w.endedPayload
	oldest := w.endedQ[0].id
	w.mu.Unlock()
	if payload > maxEndedPayloadBytes || kept != 3 || oldest != "hp-w/job-3" {
		t.Fatalf("kept %d records from %s holding %d payload bytes; want the newest 3 within %d",
			kept, oldest, payload, maxEndedPayloadBytes)
	}
	end("hp-w/job-big", maxEndedPayloadBytes+1)
	if jobs := w.Jobs(); len(jobs) != 1 || jobs[0].ID != "hp-w/job-big" {
		t.Fatalf("an oversized newest record should stand alone, got %+v", jobs)
	}
}

// heavyBody is Wave -> MatchedFilter -> Grapher with a 16 x 2048
// template bank: each job's MatchedFilter holds 256 KiB of state.
func heavyBody(t *testing.T) *taskgraph.Graph {
	t.Helper()
	g := taskgraph.New("heavy")
	add := func(name, unit string, params map[string]string) {
		task, err := units.NewTask(name, unit)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range params {
			task.SetParam(k, v)
		}
		g.MustAdd(task)
	}
	add("Wave", signal.NameWave, map[string]string{"samples": "4096"})
	add("Filter", signal.NameMatchedFilter, map[string]string{"templates": "16", "templateLen": "2048"})
	add("Sink", unitio.NameGrapher, nil)
	g.ConnectNamed("Wave", 0, "Filter", 0)
	g.ConnectNamed("Filter", 0, "Sink", 0)
	return g
}

// TestHostedJobHeapBudget: a collected job must not keep its unit
// instances. K jobs whose MatchedFilter holds 256 KiB each grow the
// live heap by far less than K x 64 KiB.
func TestHostedJobHeapBudget(t *testing.T) {
	tr := jxtaserve.NewInProc()
	ctl := newService(t, tr, "hb-ctl", Options{})
	w := newService(t, tr, "hb-w", Options{})
	peer := PeerRef{ID: "hb-w", Addr: w.Addr()}
	runJob := func() {
		job, err := ctl.Despatch(RemotePart{Peer: peer, Body: heavyBody(t), Iterations: 1}, "")
		if err != nil {
			t.Fatal(err)
		}
		counts, err := ctl.WaitRemote(job)
		if err != nil {
			t.Fatal(err)
		}
		if counts["Filter"] != 1 {
			t.Fatalf("filter processed %d items, want 1", counts["Filter"])
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC() // a second cycle empties sync.Pools
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	for i := 0; i < 2; i++ { // warm caches and pools
		runJob()
	}
	const K = 16
	base := liveHeap()
	for i := 0; i < K; i++ {
		runJob()
	}
	eventually(t, "the donor's jobs to end", func() bool { return w.liveJobs() == 0 })
	grown := int64(liveHeap()) - int64(base)
	t.Logf("%d collected jobs grew the live heap by %d KiB", K, grown>>10)
	if grown >= K*64<<10 {
		t.Fatalf("%d collected jobs grew the live heap by %d KiB, budget %d KiB", K, grown>>10, K*64)
	}
}

// waitRaw sends one triana.wait with no retry.
func waitRaw(t *testing.T, ctl *Service, addr, id string) *jxtaserve.Message {
	t.Helper()
	reply, err := ctl.Host().Request(addr, MethodWait, nil, map[string]string{"job": id})
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	return reply
}

// TestWaitAfterEndIsIdempotent: waits for an ended job return fresh
// messages with identical headers over the same payload bytes, and a
// wait whose reply the network drops succeeds on its retry.
func TestWaitAfterEndIsIdempotent(t *testing.T) {
	n := simnet.New()
	ctl := newService(t, n.Peer("wi-ctl"), "wi-ctl", Options{})
	w := newService(t, n.Peer("wi-w"), "wi-w", Options{})
	peer := PeerRef{ID: "wi-w", Addr: w.Addr()}

	job, err := ctl.Despatch(RemotePart{Peer: peer, Body: heavyBody(t), Iterations: 1}, "")
	if err != nil {
		t.Fatal(err)
	}
	first := waitRaw(t, ctl, peer.Addr, job.JobID)
	if w.liveJobs() != 0 {
		t.Fatal("the job is still live after its wait returned")
	}

	// In-process: two more waits, each a fresh message over the record.
	req := &jxtaserve.Message{Headers: map[string]string{"job": job.JobID}}
	a, err := w.handleWait(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.handleWait(req)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("two waits share one message")
	}
	for _, m := range []*jxtaserve.Message{a, b} {
		if !reflect.DeepEqual(m.Headers, first.Headers) || !bytes.Equal(m.Payload, first.Payload) {
			t.Fatalf("wait reply %v / %q differs from the first %v / %q", m.Headers, m.Payload, first.Headers, first.Payload)
		}
	}
	if first.Header("state") != gateway.Done.String() || first.Header("proc.Filter") != "1" {
		t.Fatalf("wait reply headers %v", first.Headers)
	}

	// Over the wire: every second message the donor answers with is
	// dropped. The next raw wait's reply is the first; the retrying
	// wait's first reply is lost, its retry's gets through. The donor's
	// address gets a benign profile of its own, so requests to it are
	// not counted against the donor's label.
	sink, _, err := ctl.Host().OpenInput("wi-out", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	sink.ExpectEOFs(1)
	w2, err := ctl.Despatch(RemotePart{Peer: peer, Body: accumBody(t), InLabels: []string{"wi-in"},
		OutTargets: []PipeTarget{{Label: "wi-out", Addr: ctl.Addr()}}, Iterations: 1}, "")
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctl.Host().BindOutput(w2.InAds[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Send(&types.Spectrum{Resolution: 1, Amplitudes: []float64{3, 6}}); err != nil {
		t.Fatal(err)
	}
	out.Close()
	for range sink.C {
	}
	eventually(t, "the stateful job to end", func() bool { return w.liveJobs() == 0 })
	n.SetLinkFaults(peer.Addr, simnet.LinkFaults{Latency: time.Nanosecond})
	n.SetLinkFaults("wi-w", simnet.LinkFaults{DropEvery: 2})
	want := waitRaw(t, ctl, peer.Addr, w2.JobID)
	_, wantState, _, err := decodeRunPayload(want.Payload, false)
	if err != nil || len(wantState) == 0 {
		t.Fatalf("stateful job's wait carried no checkpoint (%v)", err)
	}
	retries := ctl.Resilience().Snapshot().Retries
	_, state, err := ctl.WaitRemoteState(w2)
	if err != nil {
		t.Fatalf("retried wait failed: %v", err)
	}
	if got := ctl.Resilience().Snapshot().Retries - retries; got != 1 {
		t.Fatalf("retried wait took %d retries, want 1 (dropped %d)", got, n.Dropped())
	}
	assertSameState(t, state, wantState)
}

// TestWaitAfterEndEvictedJobRedespatches: a wait whose reply is lost
// and whose job's record is evicted before the retry gets "unknown
// job"; the chunk runner redespatches, and the farm still commits
// byte-identically to a clean run.
func TestWaitAfterEndEvictedJobRedespatches(t *testing.T) {
	const seed = 5
	chunks := chaosChunks(seed, 3, 4)
	refCtl, refPeers := chaosNet(t, simnet.New())
	ref := runChaosFarm(t, refCtl, refPeers, chunks, FarmOptions{Seed: seed})

	n := simnet.New()
	ctl := newService(t, n.Peer("we-ctl"), "we-ctl", Options{Resilience: chaosResilience()})
	var fired atomic.Bool
	var unknown atomic.Int32 // waits answered "unknown job"
	var peers []PeerRef
	for _, label := range []string{"we-w1", "we-w2"} {
		w := newService(t, n.Peer(label), label, Options{})
		peers = append(peers, PeerRef{ID: label, Addr: w.Addr()})
		// Requests to the donor resolve to this benign profile, so the
		// drop below hits only what the donor sends.
		n.SetLinkFaults(w.Addr(), simnet.LinkFaults{Latency: time.Nanosecond})
		var dropping atomic.Bool
		w.Host().Handle(MethodWait, func(req *jxtaserve.Message) (*jxtaserve.Message, error) {
			if dropping.CompareAndSwap(true, false) {
				n.SetLinkFaults(label, simnet.LinkFaults{})
			}
			reply, err := w.handleWait(req)
			if err != nil && strings.Contains(err.Error(), "unknown job") {
				unknown.Add(1)
			}
			if err != nil || !fired.CompareAndSwap(false, true) {
				return reply, err
			}
			// The first collected job: forget every ended record, then
			// lose this reply so the wait retries into the eviction.
			w.mu.Lock()
			w.ended, w.endedQ, w.endedPayload = make(map[string]*endedJob), nil, 0
			w.mu.Unlock()
			dropping.Store(true)
			n.SetLinkFaults(label, simnet.LinkFaults{DropEvery: 1})
			return reply, nil
		})
	}

	rep := runChaosFarm(t, ctl, peers, chunks, FarmOptions{Seed: seed})
	if !fired.Load() || unknown.Load() == 0 {
		t.Fatalf("no retried wait met an evicted job (intercepted %v)", fired.Load())
	}
	if rep.Redespatches < 1 {
		t.Fatalf("an evicted job's wait caused no redespatch: %+v", rep)
	}
	assertSameOutputs(t, rep.Outputs, ref.Outputs)
	assertSameBytes(t, rep.Outputs, ref.Outputs)
	assertSameState(t, rep.FinalState, ref.FinalState)
}

// gateUnit passes its input through, calling gateHook (when set) with
// the number of items it has seen before passing each one on.
type gateUnit struct{ seen int }

const gateUnitName = "test.hosted.Gate"

var (
	gateOnce sync.Once
	gateHook atomic.Pointer[func(seen int)]
)

func registerGateUnit() {
	gateOnce.Do(func() {
		units.Register(units.Meta{
			Name:        gateUnitName,
			Description: "test unit that calls a hook on every item it passes through",
			In:          1, Out: 1,
			InTypes:  [][]string{{types.AnyType}},
			OutTypes: []string{types.AnyType},
		}, func() units.Unit { return &gateUnit{} })
	})
}

func (g *gateUnit) Name() string            { return gateUnitName }
func (g *gateUnit) Init(units.Params) error { return nil }

func (g *gateUnit) Process(_ *units.Context, in []types.Data) ([]types.Data, error) {
	g.seen++
	if hook := gateHook.Load(); hook != nil {
		(*hook)(g.seen)
	}
	return []types.Data{in[0]}, nil
}

// TestHostedJobEvictionDuringDistributedRun: RunDistributed waits for a
// remote job from the moment it is despatched, so its answer does not
// depend on the donor retaining the ended record. The local portion
// holds its last item until the remote job has ended and the donor has
// ended maxEndedJobs more jobs, evicting the record; the run still
// collects the remote job's counts.
func TestHostedJobEvictionDuringDistributedRun(t *testing.T) {
	registerGateUnit()
	tr := jxtaserve.NewInProc()
	ctl := newService(t, tr, "hd-ctl", Options{})
	w := newService(t, tr, "hd-w", Options{})
	var waited atomic.Int32
	w.Host().Handle(MethodWait, func(req *jxtaserve.Message) (*jxtaserve.Message, error) {
		waited.Add(1)
		return w.handleWait(req)
	})

	const iters = 4
	hook := func(seen int) {
		if seen != iters {
			return
		}
		// Bounded, not fatal: without the early wait, none arrives
		// until the local portion returns, and the run must then fail.
		deadline := time.Now().Add(5 * time.Second)
		for (w.liveJobs() > 0 || waited.Load() == 0) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		for i := 0; i < maxEndedJobs; i++ {
			w.endJob(&job{id: "hd-w/filler-" + strconv.Itoa(i)}, nil, nil, nil)
		}
	}
	gateHook.Store(&hook)
	defer gateHook.Store(nil)

	g := figure1(t, policy.NameParallel)
	g.Find("AccumStat").Unit = gateUnitName
	plan := &policy.Plan{Kind: policy.KindParallel, Replicas: []string{"hd-w"}}
	peers := map[string]PeerRef{"hd-w": {ID: "hd-w", Addr: w.Addr()}}
	res, err := ctl.RunDistributed(context.Background(), g, "GroupTask", plan, peers,
		DistOptions{Iterations: iters, Seed: 1})
	if err != nil {
		t.Fatalf("distributed run failed after its remote job's record was evicted: %v", err)
	}
	if _, _, err := w.findJob("hd-w/job-1"); err == nil {
		t.Fatal("the remote job's record was not evicted; the test proves nothing")
	}
	if got := res.Remote["hd-w"]["PowerSpec"]; got != iters {
		t.Fatalf("remote PowerSpec processed %d items, want %d", got, iters)
	}
	if seen := res.Local.Unit("Grapher").(*unitio.Grapher).Seen(); seen != iters {
		t.Fatalf("grapher saw %d items, want %d", seen, iters)
	}
}

// TestHostedJobCancelledWhenDistributedRunFails: a distributed run that
// fails after despatching a replica cancels it, so the donor is not
// left hosting a job nothing will feed.
func TestHostedJobCancelledWhenDistributedRunFails(t *testing.T) {
	tr := jxtaserve.NewInProc()
	ctl := newService(t, tr, "hf-ctl", Options{})
	w := newService(t, tr, "hf-w", Options{})
	plan := &policy.Plan{Kind: policy.KindParallel, Replicas: []string{"hf-w", "hf-ghost"}}
	peers := map[string]PeerRef{"hf-w": {ID: "hf-w", Addr: w.Addr()}}
	_, err := ctl.RunDistributed(context.Background(), figure1(t, policy.NameParallel), "GroupTask",
		plan, peers, DistOptions{Iterations: 2, Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "unknown peer") {
		t.Fatalf("run with an unknown replica: %v", err)
	}
	eventually(t, "the despatched replica to end", func() bool { return w.liveJobs() == 0 })
	if jobs := w.Jobs(); len(jobs) != 1 || jobs[0].State != gateway.Canceled {
		t.Fatalf("the donor lists %+v, want one canceled job", jobs)
	}
}

// TestDonorParsesEachBodyOnce: a farm despatches its body once per
// chunk, and the donor parses it once — the memo entry the first
// despatch made serves every later one. Each job gets a clone, so a job
// that mutates its graph leaves the next job's untouched. A document
// that fails to parse is not kept, and distinct bodies past the bound
// do not grow the memo.
func TestDonorParsesEachBodyOnce(t *testing.T) {
	n := simnet.New()
	ctl := newService(t, n.Peer("po-ctl"), "po-ctl", Options{Resilience: chaosResilience()})
	w := newService(t, n.Peer("po-w"), "po-w", Options{})
	body := accumBody(t)
	xml, err := body.EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	memoised := func() (*taskgraph.Graph, int) {
		w.bodies.mu.Lock()
		defer w.bodies.mu.Unlock()
		if b := w.bodies.bodies[string(xml)]; b != nil {
			return b.g, len(w.bodies.bodies)
		}
		return nil, len(w.bodies.bodies)
	}

	var first *taskgraph.Graph
	rep := runChaosFarm(t, ctl, []PeerRef{{ID: "po-w", Addr: w.Addr()}}, chaosChunks(chaosSeed, 4, 3), FarmOptions{
		AfterChunk: func(c int) {
			if c == 0 {
				first, _ = memoised()
			}
		},
	})
	if rep.PeerChunks["po-w"] != 4 || rep.Redespatches != 0 {
		t.Fatalf("chunks by peer %v, %d redespatches; want 4 clean despatches", rep.PeerChunks, rep.Redespatches)
	}
	if g, held := memoised(); first == nil || g != first || held != 1 {
		t.Fatalf("donor re-parsed its body (first parse %p, now %p, %d bodies held)", first, g, held)
	}

	a, _, err := w.bodies.parse(xml)
	if err != nil {
		t.Fatal(err)
	}
	a.Name = "mutated"
	a.Tasks[0].SetParam("x", "y")
	b, _, err := w.bodies.parse(xml)
	if err != nil {
		t.Fatal(err)
	}
	if a == first || b == first || b.Name != body.Name || b.Tasks[0].Param("x", "") != "" || first.Name != body.Name {
		t.Error("a job's mutation of its graph reached the memo or the next job")
	}

	if _, _, err := w.bodies.parse([]byte("<taskgraph")); err == nil {
		t.Fatal("a truncated document parsed")
	}
	if _, held := memoised(); held != 1 {
		t.Errorf("memo holds %d bodies after a failed parse, want 1", held)
	}
	for i := 0; i < 2*maxParsedBodies; i++ {
		body.Name = "po-" + strconv.Itoa(i)
		x, err := body.EncodeXML()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := w.bodies.parse(x); err != nil {
			t.Fatal(err)
		}
		if _, held := memoised(); held > maxParsedBodies {
			t.Fatalf("memo holds %d bodies, over its bound %d", held, maxParsedBodies)
		}
	}

	// Concurrent run handlers share the memo: lookups, inserts and the
	// start-over race, and each caller mutates only its own clone.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 3*maxParsedBodies; k++ {
				g, _, err := w.bodies.parse([]byte(`<taskgraph name="po-` + strconv.Itoa(k) + `"></taskgraph>`))
				if err != nil {
					t.Error(err)
					return
				}
				g.Name = "mutated"
			}
		}()
	}
	wg.Wait()
}
