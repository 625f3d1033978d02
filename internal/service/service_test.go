package service

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"consumergrid/internal/advert"
	"consumergrid/internal/gateway"
	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/policy"
	"consumergrid/internal/simnet"
	"consumergrid/internal/taskgraph"
	"consumergrid/internal/types"
	"consumergrid/internal/units"
	"consumergrid/internal/units/signal"
	"consumergrid/internal/units/unitio"

	_ "consumergrid/internal/units/flow"
	_ "consumergrid/internal/units/mathx"
)

func newService(t *testing.T, tr jxtaserve.Transport, id string, opts Options) *Service {
	t.Helper()
	opts.PeerID = id
	opts.Transport = tr
	if _, ok := tr.(jxtaserve.TCP); ok {
		opts.Addr = "127.0.0.1:0"
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// figure1 builds Wave -> [Gaussian -> PowerSpec] -> AccumStat -> Grapher
// with the bracketed group carrying the given control unit.
func figure1(t *testing.T, control string) *taskgraph.Graph {
	t.Helper()
	g := taskgraph.New("fig1")
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
	add("Wave", signal.NameWave, map[string]string{
		"frequency": "1000", "samplingRate": "8000", "samples": "512"})
	add("Gaussian", signal.NameGaussianNoise, map[string]string{"sigma": "4"})
	add("PowerSpec", signal.NamePowerSpectrum, nil)
	add("AccumStat", signal.NameAccumStat, nil)
	add("Grapher", unitio.NameGrapher, nil)
	g.ConnectNamed("Wave", 0, "Gaussian", 0)
	g.ConnectNamed("Gaussian", 0, "PowerSpec", 0)
	g.ConnectNamed("PowerSpec", 0, "AccumStat", 0)
	g.ConnectNamed("AccumStat", 0, "Grapher", 0)
	gt, err := g.GroupTasks("GroupTask", []string{"Gaussian", "PowerSpec"})
	if err != nil {
		t.Fatal(err)
	}
	gt.ControlUnit = control
	return g
}

func checkRecoveredSignal(t *testing.T, res *DistResult, iterations int) {
	t.Helper()
	grapher := res.Local.Unit("Grapher").(*unitio.Grapher)
	if grapher.Seen() != iterations {
		t.Errorf("grapher saw %d spectra, want %d", grapher.Seen(), iterations)
	}
	spec, ok := grapher.Last().(*types.Spectrum)
	if !ok {
		t.Fatalf("grapher holds %T", grapher.Last())
	}
	if got := spec.PeakFrequency(); math.Abs(got-1000) > 2*spec.Resolution {
		t.Errorf("peak at %g Hz, want 1000", got)
	}
}

func TestRunLocalFigure1(t *testing.T) {
	tr := jxtaserve.NewInProc()
	s := newService(t, tr, "solo", Options{})
	g := figure1(t, policy.NameLocal)
	plan := &policy.Plan{Kind: policy.KindLocal}
	res, err := s.RunDistributed(context.Background(), g, "GroupTask", plan, nil,
		DistOptions{Iterations: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkRecoveredSignal(t, res, 10)
	if len(res.Remote) != 0 {
		t.Error("local plan produced remote work")
	}
}

func TestRunDistributedParallel(t *testing.T) {
	tr := jxtaserve.NewInProc()
	ctl := newService(t, tr, "controller", Options{})
	w1 := newService(t, tr, "worker-1", Options{})
	w2 := newService(t, tr, "worker-2", Options{})

	g := figure1(t, policy.NameParallel)
	plan := &policy.Plan{Kind: policy.KindParallel, Replicas: []string{"worker-1", "worker-2"}}
	peers := map[string]PeerRef{
		"worker-1": {ID: "worker-1", Addr: w1.Addr()},
		"worker-2": {ID: "worker-2", Addr: w2.Addr()},
	}
	const iters = 12
	res, err := ctl.RunDistributed(context.Background(), g, "GroupTask", plan, peers,
		DistOptions{Iterations: iters, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	checkRecoveredSignal(t, res, iters)
	// Work split across both replicas (round robin: 6 each).
	total := 0
	for peer, counts := range res.Remote {
		n := counts["Gaussian"]
		if n == 0 {
			t.Errorf("replica %s did no work", peer)
		}
		if counts["PowerSpec"] != n {
			t.Errorf("replica %s processed %d gaussians but %d spectra",
				peer, n, counts["PowerSpec"])
		}
		total += n
	}
	if total != iters {
		t.Errorf("replicas processed %d total, want %d", total, iters)
	}
	// Local side did not execute the group members.
	if _, ok := res.Local.Processed["Gaussian"]; ok {
		t.Error("group member ran locally despite distribution")
	}
}

func TestRunDistributedPipeline(t *testing.T) {
	tr := jxtaserve.NewInProc()
	ctl := newService(t, tr, "controller", Options{})
	w1 := newService(t, tr, "worker-1", Options{})
	w2 := newService(t, tr, "worker-2", Options{})

	g := figure1(t, policy.NamePeerToPeer)
	plan := &policy.Plan{
		Kind:      policy.KindPipeline,
		Stages:    []string{"Gaussian", "PowerSpec"},
		Placement: map[string]string{"Gaussian": "worker-1", "PowerSpec": "worker-2"},
	}
	peers := map[string]PeerRef{
		"worker-1": {ID: "worker-1", Addr: w1.Addr()},
		"worker-2": {ID: "worker-2", Addr: w2.Addr()},
	}
	const iters = 10
	res, err := ctl.RunDistributed(context.Background(), g, "GroupTask", plan, peers,
		DistOptions{Iterations: iters, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	checkRecoveredSignal(t, res, iters)
	// Each stage ran every datum, on its own peer.
	if res.Remote["worker-1"]["Gaussian"] != iters {
		t.Errorf("worker-1 Gaussian = %d", res.Remote["worker-1"]["Gaussian"])
	}
	if res.Remote["worker-2"]["PowerSpec"] != iters {
		t.Errorf("worker-2 PowerSpec = %d", res.Remote["worker-2"]["PowerSpec"])
	}
	if res.Remote["worker-1"]["PowerSpec"] != 0 {
		t.Error("PowerSpec leaked onto worker-1")
	}
}

func TestRunDistributedParallelOverTCP(t *testing.T) {
	tr := jxtaserve.TCP{}
	ctl := newService(t, tr, "controller", Options{})
	w1 := newService(t, tr, "worker-1", Options{})

	g := figure1(t, policy.NameParallel)
	plan := &policy.Plan{Kind: policy.KindParallel, Replicas: []string{"worker-1"}}
	peers := map[string]PeerRef{"worker-1": {ID: "worker-1", Addr: w1.Addr()}}
	res, err := ctl.RunDistributed(context.Background(), g, "GroupTask", plan, peers,
		DistOptions{Iterations: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkRecoveredSignal(t, res, 6)
}

// bundleFetches reports the chunk fetches a store made from any rung
// and the bytes they brought in. Series are keyed by peer ID across the
// process, so callers compare two snapshots.
func bundleFetches(s *Service) (int64, int64) {
	st := s.ChunkStore().Snapshot()
	return st.FetchRing + st.FetchPeer + st.FetchController, st.FetchedBytes
}

func TestOnDemandCodeFetchHappens(t *testing.T) {
	n := simnet.New()
	tap := simnet.NewTap(n.Peer("worker"))
	ctl := newService(t, n.Peer("controller"), "controller", Options{})
	worker := newService(t, tap, "worker", Options{RequireCode: true})
	fetches0, bytes0 := bundleFetches(worker)

	g := figure1(t, policy.NameParallel)
	plan := &policy.Plan{Kind: policy.KindParallel, Replicas: []string{"worker"}}
	peers := map[string]PeerRef{"worker": {ID: "worker", Addr: worker.Addr()}}
	res, err := ctl.RunDistributed(context.Background(), g, "GroupTask", plan, peers,
		DistOptions{Iterations: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkRecoveredSignal(t, res, 3)
	fetches, bytes := bundleFetches(worker)
	if fetches-fetches0 != 2 { // Gaussian + PowerSpec bundles
		t.Errorf("fetches = %d, want 2", fetches-fetches0)
	}
	if bytes-bytes0 <= 0 {
		t.Error("no code bytes transferred")
	}
	// Re-run: warm cache, no new fetches, and not one chunk.fetch on
	// the wire. A warm check is no data-tier cache hit either.
	coldMsgs := tap.SentMsgs(jxtaserve.KindChunkFetch)
	coldHits := worker.ChunkStore().Snapshot().Hits
	if _, err := ctl.RunDistributed(context.Background(), figure1(t, policy.NameParallel),
		"GroupTask", plan, peers, DistOptions{Iterations: 3, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	fetches2, _ := bundleFetches(worker)
	if fetches2 != fetches {
		t.Errorf("warm run fetched %d more bundles", fetches2-fetches)
	}
	if warm := tap.SentMsgs(jxtaserve.KindChunkFetch) - coldMsgs; warm != 0 {
		t.Errorf("warm run sent %d chunk.fetch messages, want 0", warm)
	}
	if hits := worker.ChunkStore().Snapshot().Hits - coldHits; hits != 0 {
		t.Errorf("warm run counted %d chunk-store hits, want 0", hits)
	}
}

// codePart is a one-task PowerSpectrum part from ctl to worker whose
// body names the given unit version, its output bound to a local sink.
func codePart(t *testing.T, ctl, worker *Service, version string) RemotePart {
	t.Helper()
	body := taskgraph.New("body")
	task, _ := units.NewTask("PS", signal.NamePowerSpectrum)
	if version != "" {
		task.Version = version
	}
	body.MustAdd(task)
	body.ExternalIn = []taskgraph.Endpoint{{Task: "PS", Node: 0}}
	body.ExternalOut = []taskgraph.Endpoint{{Task: "PS", Node: 0}}

	// Open a local pipe so the part has a valid out target.
	pipe, _, err := ctl.Host().OpenInput("sink", 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pipe.Close() })
	return RemotePart{
		Peer:       PeerRef{ID: worker.PeerID(), Addr: worker.Addr()},
		Body:       body,
		InLabels:   []string{"in0"},
		OutTargets: []PipeTarget{{Label: "sink", Addr: ctl.Addr()}},
		Iterations: 1,
	}
}

func TestRequireCodeWithoutCodeAddrFails(t *testing.T) {
	tr := jxtaserve.NewInProc()
	ctl := newService(t, tr, "controller", Options{})
	worker := newService(t, tr, "worker", Options{RequireCode: true})

	_, err := ctl.Despatch(codePart(t, ctl, worker, ""), "") // no codeAddr
	if err == nil || !strings.Contains(err.Error(), "not hosted") {
		t.Fatalf("err = %v", err)
	}
}

// TestRunRefusesVersionSkew: a body naming a unit version the donor's
// registry lacks names a bundle no one can verify against it, so the
// donor refuses the run before it asks anyone for code.
func TestRunRefusesVersionSkew(t *testing.T) {
	n := simnet.New()
	tap := simnet.NewTap(n.Peer("skew-worker"))
	ctl := newService(t, n.Peer("skew-ctl"), "skew-ctl", Options{})
	worker := newService(t, tap, "skew-worker", Options{RequireCode: true})

	_, err := ctl.Despatch(codePart(t, ctl, worker, "0.0-stale"), ctl.Addr())
	if err == nil || !strings.Contains(err.Error(), "version skew") {
		t.Fatalf("stale version err = %v", err)
	}
	if sent := tap.SentMsgs(jxtaserve.KindChunkFetch); sent != 0 {
		t.Errorf("donor sent %d chunk.fetch messages for a refused body", sent)
	}
}

// TestRunFailsWhenOwnerLacksBundle: a codeAddr that holds no bundle for
// the body's unit fails the run, and the error names the unit.
func TestRunFailsWhenOwnerLacksBundle(t *testing.T) {
	tr := jxtaserve.NewInProc()
	ctl := newService(t, tr, "lack-ctl", Options{})
	bystander := newService(t, tr, "lack-bystander", Options{})
	worker := newService(t, tr, "lack-worker", Options{RequireCode: true})

	_, err := ctl.Despatch(codePart(t, ctl, worker, ""), bystander.Addr())
	if err == nil || !strings.Contains(err.Error(), signal.NamePowerSpectrum) {
		t.Fatalf("err = %v, want one naming %s", err, signal.NamePowerSpectrum)
	}
}

func TestDespatchValidation(t *testing.T) {
	tr := jxtaserve.NewInProc()
	s := newService(t, tr, "s", Options{})
	body := taskgraph.New("b")
	task, _ := units.NewTask("PS", signal.NamePowerSpectrum)
	body.MustAdd(task)
	body.ExternalIn = []taskgraph.Endpoint{{Task: "PS", Node: 0}}
	if _, err := s.Despatch(RemotePart{Body: body, InLabels: nil}, ""); err == nil {
		t.Error("label/input mismatch accepted")
	}
	body2 := taskgraph.New("b2")
	body2.MustAdd(task.Clone())
	body2.ExternalOut = []taskgraph.Endpoint{{Task: "PS", Node: 0}}
	if _, err := s.Despatch(RemotePart{Body: body2, OutTargets: nil}, ""); err == nil {
		t.Error("target/output mismatch accepted")
	}
}

func TestStatusCancelPingUnknownJob(t *testing.T) {
	tr := jxtaserve.NewInProc()
	ctl := newService(t, tr, "ctl", Options{CPUMHz: 2000, FreeRAMMB: 512})
	worker := newService(t, tr, "worker", Options{})

	reply, err := ctl.Host().Request(worker.Addr(), MethodPing, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Header("peer") != "worker" || reply.Header("rm") != "fork" {
		t.Errorf("ping = %+v", reply.Headers)
	}
	// A job's status is read from Jobs, which knows no such job.
	if jobs := worker.Jobs(); len(jobs) != 0 {
		t.Errorf("Jobs on an idle worker = %+v, want none", jobs)
	}
	if _, err := ctl.Host().Request(worker.Addr(), MethodWait, nil,
		map[string]string{"job": "nope"}); err == nil {
		t.Error("unknown job wait succeeded")
	}
	if _, err := ctl.Host().Request(worker.Addr(), MethodCancel, nil,
		map[string]string{"job": "nope"}); err == nil {
		t.Error("unknown job cancel succeeded")
	}
}

// superRing starts a bootstrap super-peer — the paper's rendezvous as a
// one-member overlay ring — and returns it with the options that enrol
// a peer on it.
func superRing(t *testing.T, tr jxtaserve.Transport) (*Service, *OverlayOptions) {
	t.Helper()
	sp := newService(t, tr, "super", Options{
		Overlay: &OverlayOptions{SuperPeer: true, SyncInterval: -1, SweepInterval: -1},
	})
	return sp, &OverlayOptions{SuperPeers: []string{sp.Addr()}}
}

func TestAdvertiseAndDiscoverService(t *testing.T) {
	tr := jxtaserve.NewInProc()
	_, ring := superRing(t, tr)
	worker := newService(t, tr, "worker", Options{Overlay: ring, CPUMHz: 1800, FreeRAMMB: 256, PeerGroup: "cardiff"})
	ctl := newService(t, tr, "ctl", Options{Overlay: ring})

	if err := worker.Advertise(time.Hour); err != nil {
		t.Fatal(err)
	}
	// Discover by capability (the paper's CPU/memory attributes).
	ads, err := ctl.Discover(advertQueryMinCPU(1000), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ads) != 1 || ads[0].PeerID != "worker" || ads[0].Addr != worker.Addr() {
		t.Fatalf("discover = %+v", ads)
	}
	// Too-high bound excludes it.
	ads, _ = ctl.Discover(advertQueryMinCPU(99999), 0)
	if len(ads) != 0 {
		t.Error("capability filter failed")
	}
}

// TestDiscoverIsTheRingsAnswer pins Discover's one source: it returns
// exactly what the overlay client's Query returns for the same query
// and limit, a hosted job's pipe advert is never discoverable, a dead
// ring's error is the answer even for a peer that advertised, and a
// standalone peer finds nothing.
func TestDiscoverIsTheRingsAnswer(t *testing.T) {
	tr := jxtaserve.NewInProc()
	sp, ring := superRing(t, tr)
	a := newService(t, tr, "peer-a", Options{Overlay: ring, CPUMHz: 2000})
	b := newService(t, tr, "peer-b", Options{Overlay: ring, CPUMHz: 1000})
	for _, s := range []*Service{a, b} {
		if err := s.Advertise(time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	q := advertQueryMinCPU(0)
	for _, tc := range []struct{ limit, n int }{{0, 2}, {1, 1}, {2, 2}, {3, 2}} {
		got, err := a.Discover(q, tc.limit)
		if err != nil {
			t.Fatal(err)
		}
		want, err := a.Overlay().Query(q, tc.limit)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != tc.n || !reflect.DeepEqual(got, want) {
			t.Fatalf("limit %d: Discover = %+v, want the ring's %d adverts %+v", tc.limit, got, tc.n, want)
		}
	}

	// b hosts a job, whose input pipe advert travels only in the run
	// reply: nobody can discover it, b included.
	plan := &policy.Plan{Kind: policy.KindParallel, Replicas: []string{"peer-b"}}
	peers := map[string]PeerRef{"peer-b": {ID: "peer-b", Addr: b.Addr()}}
	if _, err := a.RunDistributed(context.Background(), figure1(t, policy.NameParallel), "GroupTask",
		plan, peers, DistOptions{Iterations: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Service{a, b} {
		if got, err := s.Discover(advert.Query{Kind: advert.KindPipe}, 0); err != nil || len(got) != 0 {
			t.Fatalf("%s discovers pipe adverts %+v, %v; want none", s.PeerID(), got, err)
		}
	}

	sp.Close()
	if got, err := a.Discover(q, 0); err == nil || got != nil {
		t.Fatalf("discover with a dead ring = %+v, %v; want the ring's error", got, err)
	}

	solo := newService(t, tr, "solo", Options{CPUMHz: 500})
	if err := solo.Advertise(time.Hour); err != nil {
		t.Fatal(err)
	}
	if got, err := solo.Discover(q, 0); err != nil || len(got) != 0 {
		t.Fatalf("standalone discover = %+v, %v; want nothing", got, err)
	}
}

// TestServiceDiscoverAllocBudget gates what a daemon's discovery answer
// costs per returned advert, end to end through Service.Discover, on
// two in-process supers at R=2 holding 24 donors: the ring's reply and
// nothing on top of it.
func TestServiceDiscoverAllocBudget(t *testing.T) {
	const donors = 24
	// 1.08 on amd64: the super answers from its stored reply and the
	// client's memo returns the adverts it decoded before. Cloning each
	// memo hit and re-encoding the reply per query took 5.9; a Discover
	// that also merged a local advert cache took 6.3.
	const budget = 2.0 // allocations per returned advert
	tr := jxtaserve.NewInProc()
	supers := []string{"ab-super-0", "ab-super-1"}
	for _, addr := range supers {
		newService(t, tr, addr, Options{Addr: addr, Overlay: &OverlayOptions{
			SuperPeers: supers, SuperPeer: true, Replication: 2, SyncInterval: -1, SweepInterval: -1}})
	}
	ring := &OverlayOptions{SuperPeers: supers, Replication: 2}
	for i := 0; i < donors; i++ {
		d := newService(t, tr, fmt.Sprintf("ab-donor-%02d", i), Options{Overlay: ring, CPUMHz: 2000})
		if err := d.Advertise(time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	ctl := newService(t, tr, "ab-ctl", Options{Overlay: ring})
	q := advert.Query{Kind: advert.KindService, Name: ServiceType}
	discover := func() {
		if got, err := ctl.Discover(q, 0); err != nil || len(got) != donors {
			t.Fatalf("discover returned %d adverts, %v", len(got), err)
		}
	}
	discover() // warm: connections dialled, adverts decoded once
	perAdvert := testing.AllocsPerRun(50, discover) / donors
	t.Logf("warm Service.Discover: %.2f allocations per returned advert", perAdvert)
	if perAdvert > budget {
		t.Fatalf("Service.Discover allocates %.2f objects per returned advert, budget %.1f", perAdvert, budget)
	}
}

func TestCloseRejectsNewJobs(t *testing.T) {
	tr := jxtaserve.NewInProc()
	ctl := newService(t, tr, "ctl", Options{})
	worker := newService(t, tr, "worker", Options{})
	worker.Close()
	g := figure1(t, policy.NameParallel)
	plan := &policy.Plan{Kind: policy.KindParallel, Replicas: []string{"worker"}}
	peers := map[string]PeerRef{"worker": {ID: "worker", Addr: worker.Addr()}}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := ctl.RunDistributed(ctx, g, "GroupTask", plan, peers,
		DistOptions{Iterations: 1}); err == nil {
		t.Error("despatch to closed worker succeeded")
	}
}

// dialCounter counts the connections a transport opens.
type dialCounter struct {
	jxtaserve.Transport
	dials atomic.Int64
}

func (d *dialCounter) Dial(addr string) (jxtaserve.Conn, error) {
	d.dials.Add(1)
	return d.Transport.Dial(addr)
}

// TestOptionsServiceRidesTheMux: a service built with no wire options
// speaks the one wire, over simnet and TCP alike, so three RPCs to a
// peer ride the one session the first of them opened.
func TestOptionsServiceRidesTheMux(t *testing.T) {
	for _, tc := range []struct {
		name  string
		inner jxtaserve.Transport
		addr  string
	}{
		{"simnet", simnet.New().Peer("mux"), ""},
		{"tcp", jxtaserve.TCP{}, "127.0.0.1:0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := &dialCounter{Transport: tc.inner}
			ctl := newService(t, tr, "mux-ctl", Options{Addr: tc.addr})
			w := newService(t, tr, "mux-w", Options{Addr: tc.addr})
			for i := 0; i < 3; i++ {
				if _, err := ctl.Host().Request(w.Addr(), MethodPing, nil, nil); err != nil {
					t.Fatal(err)
				}
			}
			if n := tr.dials.Load(); n != 1 {
				t.Errorf("3 pings dialled %d connections, want 1 session", n)
			}
		})
	}
}

// TestClosedServiceIsCollected is the regression for bench finding 2a:
// a closed daemon must become garbage. The process registry binds each
// peer's resilience counters, so they cannot live inside the Service.
// The Service sits in reference cycles, so its own finalizer never
// runs; the billing ledger, which only the Service references, stands
// in for it. The donor is configured as gridbench's are.
func TestClosedServiceIsCollected(t *testing.T) {
	_, ring := superRing(t, jxtaserve.TCP{})
	freed := func() chan struct{} {
		d, err := New(Options{
			PeerID: "gc-donor", Transport: jxtaserve.TCP{}, Addr: "127.0.0.1:0",
			Overlay: ring,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if err := d.Advertise(time.Hour); err != nil {
			t.Fatal(err)
		}
		freed := make(chan struct{})
		runtime.SetFinalizer(d.billing, func(*ledger) { close(freed) })
		return freed
	}()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a closed Service is still reachable")
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{Transport: jxtaserve.NewInProc()}); err == nil {
		t.Error("missing PeerID accepted")
	}
	if _, err := New(Options{PeerID: "x"}); err == nil {
		t.Error("missing transport accepted")
	}
}

// TestConcurrentApplications drives two distributed runs of the same
// workflow through one controller at the same time: run-scoped pipe
// labels keep their streams apart (§3.2's multiple networks).
func TestConcurrentApplications(t *testing.T) {
	tr := jxtaserve.NewInProc()
	ctl := newService(t, tr, "controller", Options{})
	w1 := newService(t, tr, "worker-1", Options{})
	w2 := newService(t, tr, "worker-2", Options{})
	peers := map[string]PeerRef{
		"worker-1": {ID: "worker-1", Addr: w1.Addr()},
		"worker-2": {ID: "worker-2", Addr: w2.Addr()},
	}
	plan := &policy.Plan{Kind: policy.KindParallel, Replicas: []string{"worker-1", "worker-2"}}

	const runs = 3
	const iters = 8
	results := make(chan error, runs)
	for r := 0; r < runs; r++ {
		go func(seed int64) {
			res, err := ctl.RunDistributed(context.Background(),
				figure1(t, policy.NameParallel), "GroupTask", plan, peers,
				DistOptions{Iterations: iters, Seed: seed})
			if err == nil {
				grapher := res.Local.Unit("Grapher").(*unitio.Grapher)
				if grapher.Seen() != iters {
					err = fmt.Errorf("run saw %d of %d spectra", grapher.Seen(), iters)
				}
				total := 0
				for _, counts := range res.Remote {
					total += counts["Gaussian"]
				}
				if err == nil && total != iters {
					err = fmt.Errorf("remote processed %d of %d", total, iters)
				}
			}
			results <- err
		}(int64(r + 1))
	}
	for r := 0; r < runs; r++ {
		select {
		case err := <-results:
			if err != nil {
				t.Errorf("concurrent run failed: %v", err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("concurrent runs deadlocked")
		}
	}
}

// TestServiceWithBatchGateway runs a distributed group on a peer whose
// local resource manager is the slot-limited batch queue — the paper's
// cluster-behind-a-gateway deployment (§3.1: "The server component within
// each peer can interact with Globus GRAM to launch jobs locally").
func TestServiceWithBatchGateway(t *testing.T) {
	tr := jxtaserve.NewInProc()
	batch, err := gateway.NewBatch(1)
	if err != nil {
		t.Fatal(err)
	}
	defer batch.Close()
	ctl := newService(t, tr, "controller", Options{})
	worker := newService(t, tr, "cluster-gw", Options{RM: batch})

	reply, err := ctl.Host().Request(worker.Addr(), MethodPing, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Header("rm") != "batch" {
		t.Fatalf("rm = %q", reply.Header("rm"))
	}
	g := figure1(t, policy.NameParallel)
	plan := &policy.Plan{Kind: policy.KindParallel, Replicas: []string{"cluster-gw"}}
	peers := map[string]PeerRef{"cluster-gw": {ID: "cluster-gw", Addr: worker.Addr()}}
	res, err := ctl.RunDistributed(context.Background(), g, "GroupTask", plan, peers,
		DistOptions{Iterations: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkRecoveredSignal(t, res, 5)
	// Two sequential runs queue behind the single slot but both finish.
	if _, err := ctl.RunDistributed(context.Background(), figure1(t, policy.NameParallel),
		"GroupTask", plan, peers, DistOptions{Iterations: 5, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if batch.QueueWaits().Count() < 2 {
		t.Errorf("batch recorded %d queue waits", batch.QueueWaits().Count())
	}
}
