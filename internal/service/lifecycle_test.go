package service

// The graceful-lifecycle battery: admission drain semantics, a drain
// under live multi-tenant farm load (the ISSUE's acceptance scenario),
// checkpoint/restore of the daemon's durable state, and a repeated
// Start→Drain→Stop cycle that must not leak goroutines.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"consumergrid/internal/chunkstore"
	"consumergrid/internal/gateway"
	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/lifecycle"
	"consumergrid/internal/metrics"
	"consumergrid/internal/simnet"
	"consumergrid/internal/taskgraph"
	"consumergrid/internal/types"
)

// TestLifecycleStateRefusesBackwardMoves: the daemon's one lifecycle
// machine moves forward only, so a late goroutine cannot resurrect a
// draining daemon, but Stopped is reachable from anywhere; the
// lifecycle_state gauge follows every accepted move.
func TestLifecycleStateRefusesBackwardMoves(t *testing.T) {
	s := newService(t, jxtaserve.NewInProc(), "lc-moves", Options{})
	gauge := metrics.Default().Gauge(metrics.Series("lifecycle_state", "peer", "lc-moves"))
	check := func(want lifecycle.State) {
		t.Helper()
		if got := s.LifecycleState(); got != want {
			t.Fatalf("state = %v, want %v", got, want)
		}
		if got := gauge.Value(); got != float64(want) {
			t.Fatalf("lifecycle_state gauge = %v, want %v", got, float64(want))
		}
	}
	check(lifecycle.Running)
	s.lc.SetState(lifecycle.Draining)
	s.lc.SetState(lifecycle.Running) // must be ignored
	s.lc.SetState(lifecycle.Starting)
	check(lifecycle.Draining)
	s.lc.SetState(lifecycle.Stopped)
	check(lifecycle.Stopped)
}

// TestAdmissionDrainGatesFarmsNotSlots: drain mode refuses new farms
// with the typed sentinel but keeps granting despatch slots, so farms
// registered before the drain can finish their remaining chunks.
func TestAdmissionDrainGatesFarmsNotSlots(t *testing.T) {
	a := newAdmission(2, "drain-unit", nil)
	defer a.close()
	if err := a.beginFarm("alice"); err != nil {
		t.Fatalf("beginFarm before drain: %v", err)
	}
	a.beginDrain()
	if err := a.beginFarm("bob"); !errors.Is(err, ErrDraining) {
		t.Fatalf("beginFarm during drain: err = %v, want ErrDraining", err)
	}
	if !a.tryAcquire("alice") {
		t.Fatal("draining admission refused a slot for an in-flight farm")
	}
	idle := func(farms, inflight int) bool { return farms == 0 && inflight == 0 }
	if a.await(30*time.Millisecond, idle) {
		t.Fatal("await reported idle with a farm and a slot live")
	}
	polls := 0
	go func() {
		time.Sleep(20 * time.Millisecond)
		a.release("alice")
		a.endFarm()
	}()
	if !a.await(2*time.Second, func(farms, inflight int) bool { polls++; return idle(farms, inflight) }) {
		t.Fatal("await never settled after release")
	}
	if polls < 2 {
		t.Fatalf("await polled %d times; a drain's progress gauge sees every poll", polls)
	}
}

// TestDrainUnderTenantLoad is the acceptance scenario: four tenants'
// farms are mid-flight when the drain begins. Every in-flight farm
// must complete (zero failures), a farm submitted after the drain
// begins gets ErrDraining, the daemon's adverts are retracted from the
// overlay, and its super-peer store is handed to the ring successor
// before the drain reports done.
func TestDrainUnderTenantLoad(t *testing.T) {
	tr := jxtaserve.NewInProc()
	seed := newService(t, tr, "dl-seed", Options{
		Overlay: &OverlayOptions{SuperPeer: true, Replication: 2, SyncInterval: -1, SweepInterval: -1},
	})
	ctl := newService(t, tr, "dl-ctl", Options{
		Overlay: &OverlayOptions{
			SuperPeers: []string{seed.Addr()}, SuperPeer: true,
			Replication: 2, SyncInterval: -1, SweepInterval: -1,
		},
	})
	// Ring membership must agree on every participant (the bootstrap
	// seed cannot know the ctl's auto-assigned address up front), or the
	// seed never replicates writes back to the ctl's own store.
	seed.Overlay().Ring().Add(ctl.Addr())
	var peers []PeerRef
	for _, label := range []string{"dl-w1", "dl-w2", "dl-w3"} {
		w := newService(t, tr, label, Options{})
		peers = append(peers, PeerRef{ID: label, Addr: w.Addr()})
	}
	if err := ctl.Advertise(time.Hour); err != nil {
		t.Fatalf("advertise: %v", err)
	}
	if got := ctl.Overlay().Stats().Published; got == 0 {
		t.Fatal("controller published no adverts; the retraction path would be vacuous")
	}

	// Four tenants' farms; the drain fires only once every farm has
	// committed its first chunk, so all are provably in flight.
	const nFarms = 4
	var inFlight sync.WaitGroup
	inFlight.Add(nFarms)
	var drainOnce sync.Once
	drained := make(chan struct{})
	go func() {
		inFlight.Wait()
		drainOnce.Do(func() {
			<-ctl.BeginDrain(30 * time.Second)
			close(drained)
		})
	}()

	var farms sync.WaitGroup
	errs := make([]error, nFarms)
	reports := make([]*FarmReport, nFarms)
	for i := 0; i < nFarms; i++ {
		i := i
		farms.Add(1)
		go func() {
			defer farms.Done()
			first := true
			reports[i], errs[i] = ctl.FarmChunks(context.Background(),
				chaosChunks(int64(100+i), 3, 4), FarmOptions{
					Tenant: fmt.Sprintf("tenant-%d", i),
					Body:   func() *taskgraph.Graph { return accumBody(t) },
					Peers:  peers,
					AfterChunk: func(c int) {
						if first {
							first = false
							inFlight.Done()
						}
					},
				})
		}()
	}
	farms.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("in-flight farm %d failed during drain: %v", i, err)
		}
		if len(reports[i].Outputs) != 3*4 {
			t.Fatalf("farm %d outputs = %d, want %d", i, len(reports[i].Outputs), 3*4)
		}
	}
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Fatal("drain never completed")
	}

	if ctl.Ready() {
		t.Fatal("drained daemon still reports ready")
	}
	if _, err := ctl.FarmChunks(context.Background(), chaosChunks(1, 1, 2), FarmOptions{
		Tenant: "late", Body: func() *taskgraph.Graph { return accumBody(t) },
		Peers: peers,
	}); !errors.Is(err, ErrDraining) {
		t.Fatalf("farm after drain: err = %v, want ErrDraining", err)
	}

	rep := ctl.DrainReport()
	if !rep.Drained {
		t.Fatalf("drain report says in-flight work remained: %+v", rep)
	}
	if rep.AdvertsRetracted == 0 {
		t.Fatalf("no adverts retracted: %+v", rep)
	}
	if got := ctl.Overlay().Stats().Published; got != 0 {
		t.Fatalf("%d adverts still published after drain", got)
	}
	if rep.HandoffAdverts == 0 {
		t.Fatalf("super-peer handoff pushed nothing to the ring successor: %+v", rep)
	}
}

// TestDrainWaitsForHostedJobs: a donor asked to drain while it hosts a
// job finishes that job before the drain reports done, so a supervisor
// that closes the daemon at that moment cancels nothing and the farm
// commits without a redespatch.
func TestDrainWaitsForHostedJobs(t *testing.T) {
	n := simnet.New()
	ctl := newService(t, n.Peer("dh-ctl"), "dh-ctl", Options{Resilience: chaosResilience()})
	workers := make([]*Service, 0, 2)
	var peers []PeerRef
	for _, label := range []string{"dh-w1", "dh-w2"} {
		w := newService(t, n.Peer(label), label, Options{})
		workers = append(workers, w)
		peers = append(peers, PeerRef{ID: label, Addr: w.Addr()})
		// Every frame a donor sends takes 20ms, so its job, fetching its
		// wide inputs, outlives the drain's start by several frames, and
		// its wait reply lands after the job ends; requests to it stay
		// fast.
		n.SetLinkFaults(w.Addr(), simnet.LinkFaults{Latency: time.Nanosecond})
		n.SetLinkFaults(label, simnet.LinkFaults{Latency: 20 * time.Millisecond})
	}
	chunks := bigChunks(3, 1, 4, ladderBins)
	type outcome struct {
		rep *FarmReport
		err error
	}
	farmed := make(chan outcome, 1)
	go func() {
		rep, err := ctl.FarmChunks(context.Background(), chunks, FarmOptions{
			Body:  func() *taskgraph.Graph { return accumBody(t) },
			Peers: peers,
		})
		farmed <- outcome{rep, err}
	}()

	var donor *Service
	eventually(t, "a donor to accept the chunk", func() bool {
		for _, w := range workers {
			if w.liveJobs() > 0 {
				donor = w
				return true
			}
		}
		return false
	})
	<-donor.BeginDrain(10 * time.Second)
	if !donor.DrainReport().Drained {
		t.Fatal("drain timed out with the hosted job in flight")
	}
	if live := donor.liveJobs(); live != 0 {
		t.Fatalf("drain completed with %d hosted jobs live", live)
	}
	donor.Close() // the supervisor's move once the drain completes

	var got outcome
	select {
	case got = <-farmed:
	case <-time.After(10 * time.Second):
		t.Fatal("farm never finished")
	}
	if got.err != nil {
		t.Fatalf("farm failed: %v", got.err)
	}
	if got.rep.Redespatches != 0 {
		t.Fatalf("the drained donor's job was redespatched: %+v", got.rep)
	}
	if len(got.rep.Outputs) != len(chunks[0]) {
		t.Fatalf("farm committed %d outputs, want %d", len(got.rep.Outputs), len(chunks[0]))
	}
}

// TestDrainWaitsForResultCollection: a farm job's outputs ride its wait
// reply, so a job that has ended still holds a chunk until a triana.wait
// collects it. A drain does not complete on the jobs' ends alone: it
// waits for their waits, and one whose results nobody collects times
// out and reports them uncollected.
func TestDrainWaitsForResultCollection(t *testing.T) {
	tr := jxtaserve.NewInProc()
	ctl := newService(t, tr, "drc-ctl", Options{})
	item, err := types.Marshal(&types.Spectrum{Resolution: 1, Amplitudes: []float64{3, 6}})
	if err != nil {
		t.Fatal(err)
	}
	despatch := func(w *Service) *RemoteJob {
		t.Helper()
		job, err := ctl.Despatch(RemotePart{
			Peer: PeerRef{ID: w.PeerID(), Addr: w.Addr()}, Body: accumBody(t), Iterations: 1,
			manifest: chunkstore.EncodeManifest(&chunkstore.Manifest{
				Origin: ctl.Addr(), Items: []chunkstore.Item{{Data: item}},
			}),
		}, "")
		if err != nil {
			t.Fatal(err)
		}
		return job
	}

	// Collected during the drain: the drain waits for both waits.
	w := newService(t, tr, "drc-w1", Options{})
	jobs := []*RemoteJob{despatch(w), despatch(w)}
	eventually(t, "both jobs to end", func() bool { return w.liveJobs() == 0 })
	done := w.BeginDrain(10 * time.Second)
	time.Sleep(50 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("the drain completed with two ended jobs' results uncollected")
	default:
	}
	for _, job := range jobs {
		if _, err := ctl.WaitRemote(job); err != nil {
			t.Fatalf("collecting a drained donor's results: %v", err)
		}
	}
	<-done
	if rep := w.DrainReport(); !rep.Drained || rep.Uncollected != 0 {
		t.Fatalf("drain after every result was collected: %+v, want drained with none uncollected", rep)
	}

	// Never collected: the drain times out and says so.
	w2 := newService(t, tr, "drc-w2", Options{})
	despatch(w2)
	eventually(t, "the job to end", func() bool { return w2.liveJobs() == 0 })
	<-w2.BeginDrain(100 * time.Millisecond)
	if rep := w2.DrainReport(); rep.Drained || rep.Uncollected != 1 {
		t.Fatalf("drain with one result never collected: %+v, want not drained, 1 uncollected", rep)
	}
}

// TestDrainWaitsForHeldOutputs: a job that ended before the drain
// began, and whose wait was answered, listed its wide output by
// address; its controller fetches that output later, after the vote. A
// drain does not complete while the donor holds the output: the fetch
// still finds it mid-drain, and the drain completes once the controller
// cancels the ended job, which releases the hold. A hold never released
// keeps the drain waiting until its deadline, reported uncollected.
func TestDrainWaitsForHeldOutputs(t *testing.T) {
	tr := jxtaserve.NewInProc()
	ctl := newService(t, tr, "dho-ctl", Options{})
	wide, err := types.Marshal(bigChunks(chaosSeed, 1, 1, ladderBins)[0][0])
	if err != nil {
		t.Fatal(err)
	}
	input := chunkstore.Digest(wide)
	ctl.ChunkStore().Pin(input, wide)
	despatch := func(w *Service) (*RemoteJob, remoteResult) {
		t.Helper()
		job, err := ctl.Despatch(RemotePart{
			Peer: PeerRef{ID: w.PeerID(), Addr: w.Addr()}, Body: accumBody(t), Iterations: 1,
			manifest: chunkstore.EncodeManifest(&chunkstore.Manifest{
				Origin: ctl.Addr(), Items: []chunkstore.Item{{Digest: input}},
			}),
		}, "")
		if err != nil {
			t.Fatal(err)
		}
		res, err := ctl.waitRemote(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.items) != 1 || res.items[0].value != nil {
			t.Fatalf("result list %+v, want one output listed by address", res.items)
		}
		return job, res
	}

	w := newService(t, tr, "dho-w1", Options{})
	job, res := despatch(w)
	done := w.BeginDrain(10 * time.Second)
	time.Sleep(50 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("the drain completed while the donor held an output its controller had yet to fetch")
	default:
	}
	digest := res.items[0].addr.digest()
	got, err := ctl.ChunkStore().FetchThrough(digest,
		[]chunkstore.Source{{Addr: w.Addr(), Class: chunkstore.SourcePeer}}, ctl.fetchChunkWire)
	if err != nil {
		t.Fatalf("fetching the held output mid-drain: %v", err)
	}
	if chunkstore.Digest(got) != digest {
		t.Fatal("the fetched output does not match its address")
	}
	if err := ctl.CancelRemote(job); err != nil {
		t.Fatal(err)
	}
	<-done
	if rep := w.DrainReport(); !rep.Drained || rep.Uncollected != 0 {
		t.Fatalf("drain after the hold was released: %+v, want drained with none uncollected", rep)
	}

	// Never released: the drain times out and says so.
	w2 := newService(t, tr, "dho-w2", Options{})
	despatch(w2)
	<-w2.BeginDrain(100 * time.Millisecond)
	if rep := w2.DrainReport(); rep.Drained || rep.Uncollected != 1 {
		t.Fatalf("drain with an output held to the end: %+v, want not drained, 1 uncollected", rep)
	}
}

// TestDrainWaitsForRunHandlers: a triana.run handler that got past the
// wire's quiesce before the drain began is hosted work from its first
// line. The drain does not complete while the handler binds its pipes,
// and it waits for the job the handler accepts to run to its end.
func TestDrainWaitsForRunHandlers(t *testing.T) {
	n := simnet.New()
	ctl := newService(t, n.Peer("drh-ctl"), "drh-ctl", Options{})
	w := newService(t, n.Peer("drh-w"), "drh-w", Options{})
	peer := PeerRef{ID: "drh-w", Addr: w.Addr()}
	sink, _, err := ctl.Host().OpenInput("drh-sink", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	sink.ExpectEOFs(1)
	// Only the donor's connection to the controller's sink is slow, so
	// the run handler spends 300ms binding its output pipe.
	n.SetLinkFaults(ctl.Addr(), simnet.LinkFaults{Latency: 300 * time.Millisecond})

	entered := make(chan struct{}, 1)
	w.Host().Handle(MethodRun, func(req *jxtaserve.Message) (*jxtaserve.Message, error) {
		entered <- struct{}{}
		return w.handleRun(req)
	})

	type outcome struct {
		job *RemoteJob
		err error
	}
	despatched := make(chan outcome, 1)
	go func() {
		job, err := ctl.Despatch(RemotePart{Peer: peer, Body: accumBody(t), InLabels: []string{"drh-in"},
			OutTargets: []PipeTarget{{Label: "drh-sink", Addr: ctl.Addr()}}, Iterations: 1}, "")
		despatched <- outcome{job, err}
	}()
	<-entered
	time.Sleep(50 * time.Millisecond) // well into the handler's 300ms bind
	done := w.BeginDrain(10 * time.Second)

	got := <-despatched
	if got.err != nil {
		t.Fatalf("a run that got past the quiesce was refused: %v", got.err)
	}
	select {
	case <-done:
		t.Fatal("the drain completed while a run handler was in flight")
	default:
	}
	if _, err := ctl.Despatch(RemotePart{Peer: peer, Body: accumBody(t), InLabels: []string{"drh-late"},
		OutTargets: []PipeTarget{{Label: "drh-sink", Addr: ctl.Addr()}}, Iterations: 1}, ""); err == nil ||
		!strings.Contains(err.Error(), "draining") {
		t.Fatalf("a run sent after the drain began: %v, want a draining refusal", err)
	}

	out, err := ctl.Host().BindOutput(got.job.InAds[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Send(&types.Spectrum{Resolution: 1, Amplitudes: []float64{3, 6}}); err != nil {
		t.Fatal(err)
	}
	out.Close()
	for range sink.C {
	}
	if _, err := ctl.WaitRemote(got.job); err != nil {
		t.Fatalf("the accepted job did not finish: %v", err)
	}
	<-done
	if !w.DrainReport().Drained {
		t.Fatal("drain timed out")
	}
	if n := w.hostedWork(); n != 0 {
		t.Fatalf("drain completed with %d hosted jobs or run handlers", n)
	}
}

// TestDrainTimesOutOnUnboundHostedJob: a hosted job whose producer
// never binds its input pipe never ends by itself. The drain waits for
// it until the timeout and reports Drained false; the Close that
// follows cancels it.
func TestDrainTimesOutOnUnboundHostedJob(t *testing.T) {
	tr := jxtaserve.NewInProc()
	ctl := newService(t, tr, "dub-ctl", Options{})
	w := newService(t, tr, "dub-w", Options{})
	sink, _, err := ctl.Host().OpenInput("dub-sink", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	sink.ExpectEOFs(1)
	job, err := ctl.Despatch(RemotePart{Peer: PeerRef{ID: "dub-w", Addr: w.Addr()}, Body: accumBody(t),
		InLabels:   []string{"dub-in"},
		OutTargets: []PipeTarget{{Label: "dub-sink", Addr: ctl.Addr()}}, Iterations: 1}, "")
	if err != nil {
		t.Fatal(err)
	}

	<-w.BeginDrain(100 * time.Millisecond)
	if w.DrainReport().Drained {
		t.Fatal("drain reported clean with a hosted job still live")
	}
	if n := w.liveJobs(); n != 1 {
		t.Fatalf("%d live jobs after the drain timed out, want the unbound one", n)
	}
	w.Close()
	if n := w.liveJobs(); n != 0 {
		t.Fatalf("%d live jobs after Close", n)
	}
	jobs := w.Jobs()
	if len(jobs) != 1 || jobs[0].ID != job.JobID || jobs[0].State != gateway.Canceled {
		t.Fatalf("after Close the donor lists %+v, want %s canceled", jobs, job.JobID)
	}
}

// TestCheckpointRestoreRoundTrip: a daemon's billing ledger, health
// view, pinned chunks (restored as cache entries) and super-peer advert
// store all survive a checkpointed shutdown and appear in a fresh
// daemon started over the same state dir — no re-discovery, no
// re-publish.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	tr := jxtaserve.NewInProc()
	ctlDir, donorDir := t.TempDir(), t.TempDir()
	ctlOpts := Options{
		StateDir: ctlDir, CheckpointInterval: -1,
		Overlay: &OverlayOptions{SuperPeer: true, Replication: 1, SyncInterval: -1, SweepInterval: -1},
	}
	ctl := newService(t, tr, "ck-ctl", ctlOpts)
	donor := newService(t, tr, "ck-w1", Options{StateDir: donorDir, CheckpointInterval: -1})

	if err := ctl.Advertise(time.Hour); err != nil {
		t.Fatalf("advertise: %v", err)
	}
	pinData := []byte("pinned chunk payload")
	pinDigest := chunkstore.Digest(pinData)
	ctl.ChunkStore().Pin(pinDigest, pinData)

	if _, err := ctl.FarmChunks(context.Background(), chaosChunks(7, 2, 3), FarmOptions{
		Body:  func() *taskgraph.Graph { return accumBody(t) },
		Peers: []PeerRef{{ID: "ck-w1", Addr: donor.Addr()}},
	}); err != nil {
		t.Fatalf("farm: %v", err)
	}

	wantBilling := donor.Billing()
	if len(wantBilling) == 0 {
		t.Fatal("donor ledger empty; nothing to round-trip")
	}
	wantHealth := ctl.Health().Snapshot()
	if len(wantHealth) == 0 {
		t.Fatal("controller health view empty; nothing to round-trip")
	}
	wantLive, _ := ctl.OverlaySuper().Entries()
	if wantLive == 0 {
		t.Fatal("super store empty; nothing to round-trip")
	}
	if err := ctl.CheckpointNow(); err != nil {
		t.Fatalf("CheckpointNow(ctl): %v", err)
	}
	if err := donor.CheckpointNow(); err != nil {
		t.Fatalf("CheckpointNow(donor): %v", err)
	}
	ctl.Close()
	donor.Close()

	ctl2 := newService(t, tr, "ck-ctl", ctlOpts)
	donor2 := newService(t, tr, "ck-w1", Options{StateDir: donorDir, CheckpointInterval: -1})

	if got := donor2.Billing(); !reflect.DeepEqual(got, wantBilling) {
		t.Errorf("restored billing = %+v, want %+v", got, wantBilling)
	}
	got := ctl2.Health().Snapshot()
	found := false
	for _, p := range got {
		if p.Peer != "ck-w1" {
			continue
		}
		found = true
		for _, w := range wantHealth {
			if w.Peer == "ck-w1" && (p.Score != w.Score || p.State != w.State) {
				t.Errorf("restored health for ck-w1 = score %v state %v, want %v %v",
					p.Score, p.State, w.Score, w.State)
			}
		}
	}
	if !found {
		t.Errorf("restored health view lost peer ck-w1 (have %+v)", got)
	}
	if data, ok := ctl2.ChunkStore().Get(pinDigest); !ok || string(data) != string(pinData) {
		t.Errorf("restored chunk pin: ok=%v data=%q", ok, data)
	}
	if live, _ := ctl2.OverlaySuper().Entries(); live != wantLive {
		t.Errorf("restored super store has %d live adverts, want %d", live, wantLive)
	}
}

// TestLifecycleCyclesDoNotLeakGoroutines: 50 full Start→Drain→Stop
// cycles of a checkpointing daemon (same peer ID, same state dir, so
// every cycle also restores the previous one's snapshot) must return
// the process to its starting goroutine count.
func TestLifecycleCyclesDoNotLeakGoroutines(t *testing.T) {
	tr := jxtaserve.NewInProc()
	dir := filepath.Join(t.TempDir(), "state")
	runtime.GC()
	before := runtime.NumGoroutine()

	for i := 0; i < 50; i++ {
		svc, err := New(Options{
			PeerID: "cycle-peer", Transport: tr,
			StateDir: dir, CheckpointInterval: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("cycle %d: New: %v", i, err)
		}
		select {
		case <-svc.BeginDrain(2 * time.Second):
		case <-time.After(10 * time.Second):
			t.Fatalf("cycle %d: drain hung", i)
		}
		if err := svc.Close(); err != nil {
			t.Fatalf("cycle %d: Close: %v", i, err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines did not settle after 50 cycles: before=%d now=%d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDrainRPCReportsProgress: the triana.drain RPC (trianactl drain's
// transport) kicks off the drain and, with wait=1, blocks until it
// completes and reports what it achieved.
func TestDrainRPCReportsProgress(t *testing.T) {
	tr := jxtaserve.NewInProc()
	svc := newService(t, tr, "rpc-drain", Options{})
	callerTr := jxtaserve.NewMux(tr, jxtaserve.WireOptions{})
	defer callerTr.Close()
	caller, err := jxtaserve.NewHost("rpc-drain-caller", callerTr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer caller.Close()

	reply, err := caller.Request(svc.Addr(), MethodDrain, nil,
		map[string]string{"timeout": "5s", "wait": "1"})
	if err != nil {
		t.Fatalf("drain RPC: %v", err)
	}
	if got := reply.Header("state"); got != "draining" {
		t.Errorf("state header = %q, want draining", got)
	}
	if got := reply.Header("drained"); got != "true" {
		t.Errorf("drained header = %q, want true (idle daemon)", got)
	}
	if got := reply.Header("farms"); got != "0" {
		t.Errorf("farms header = %q, want 0", got)
	}

	// Quiesced triana.run now refuses with a draining error.
	_, err = caller.Request(svc.Addr(), MethodRun, nil, nil)
	var rpcErr *jxtaserve.RPCError
	if !errors.As(err, &rpcErr) || !strings.Contains(rpcErr.Remote, "draining") {
		t.Fatalf("quiesced triana.run: err = %v, want a draining RPC refusal", err)
	}
}
