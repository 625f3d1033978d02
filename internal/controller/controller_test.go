package controller

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/overlay"
	"consumergrid/internal/policy"
	"consumergrid/internal/service"
	"consumergrid/internal/taskgraph"
	"consumergrid/internal/types"
	"consumergrid/internal/units"
	"consumergrid/internal/units/signal"
	"consumergrid/internal/units/unitio"

	_ "consumergrid/internal/units/flow"
)

// testNet is the controller suites' one grid, all on one in-proc
// transport: two bare super-peers forming an R=2 overlay ring, n worker
// services and a controller enrolled on it. Workers do not advertise
// until a test says so (advertiseAll), so push and pull timing stay
// under its control.
type testNet struct {
	supers  []*overlay.SuperPeer
	ctl     *Controller
	workers []*service.Service
}

// newNet builds the grid. workerOpts shapes worker i (nil gives
// 1000+100i MHz and 256 MB); the grid sets its ID, transport and ring.
func newNet(t *testing.T, nWorkers int, workerOpts func(i int) service.Options) *testNet {
	t.Helper()
	tr := jxtaserve.NewInProc()
	// The bare supers speak the services' wire.
	superTr := jxtaserve.NewMux(tr, jxtaserve.WireOptions{})
	t.Cleanup(func() { superTr.Close() })
	ring := overlay.NewRing(0)
	net := &testNet{}
	var superAddrs []string
	for _, id := range []string{"sp-0", "sp-1"} {
		h, err := jxtaserve.NewHost(id, superTr, "")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close() })
		ring.Add(h.Addr())
		superAddrs = append(superAddrs, h.Addr())
		sp, err := overlay.NewSuper(h, overlay.SuperOptions{
			Ring: ring, Replication: 2, SweepInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sp.Close)
		net.supers = append(net.supers, sp)
	}
	newSvc := func(id string, opts service.Options) *service.Service {
		opts.PeerID, opts.Transport = id, tr
		opts.Overlay = &service.OverlayOptions{SuperPeers: superAddrs, Replication: 2}
		s, err := service.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	for i := 0; i < nWorkers; i++ {
		opts := service.Options{CPUMHz: 1000 + 100*i, FreeRAMMB: 256}
		if workerOpts != nil {
			opts = workerOpts(i)
		}
		net.workers = append(net.workers, newSvc(workerID(i), opts))
	}
	net.ctl = New(newSvc("controller", service.Options{}), t.Logf)
	return net
}

// enrolledNet is newNet with every worker advertised.
func enrolledNet(t *testing.T, nWorkers int, workerOpts func(i int) service.Options) *testNet {
	t.Helper()
	net := newNet(t, nWorkers, workerOpts)
	advertiseAll(t, net)
	return net
}

// cpus shapes workers by advertised CPU alone.
func cpus(mhz ...int) func(i int) service.Options {
	return func(i int) service.Options { return service.Options{CPUMHz: mhz[i], FreeRAMMB: 256} }
}

func advertiseAll(t *testing.T, net *testNet) {
	t.Helper()
	for _, w := range net.workers {
		if err := w.Advertise(time.Hour); err != nil {
			t.Fatal(err)
		}
	}
}

func workerID(i int) string { return "worker-" + string(rune('a'+i)) }

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

func checkSignal(t *testing.T, rep *Report, iters int) {
	t.Helper()
	grapher := rep.Result().Unit("Grapher").(*unitio.Grapher)
	if grapher.Seen() != iters {
		t.Errorf("grapher saw %d, want %d", grapher.Seen(), iters)
	}
	spec := grapher.Last().(*types.Spectrum)
	if got := spec.PeakFrequency(); math.Abs(got-1000) > 2*spec.Resolution {
		t.Errorf("peak at %g Hz", got)
	}
}

func TestControllerEndToEndParallel(t *testing.T) {
	net := enrolledNet(t, 3, nil)
	rep, err := net.ctl.Run(context.Background(), figure1(t, policy.NameParallel),
		RunOptions{Iterations: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkSignal(t, rep, 12)
	if rep.Plan.Kind != policy.KindParallel || len(rep.Peers) != 3 {
		t.Errorf("plan = %+v peers = %v", rep.Plan, rep.Peers)
	}
	// The annotated graph records the decision.
	gt := rep.Annotated.Find("GroupTask")
	if gt.Param("replicas", "") != "3" {
		t.Errorf("annotation = %v", gt.Params)
	}
	// All 12 items processed across replicas.
	total := 0
	for _, counts := range rep.Dist.Remote {
		total += counts["Gaussian"]
	}
	if total != 12 {
		t.Errorf("remote gaussians = %d", total)
	}
}

func TestControllerEndToEndPipeline(t *testing.T) {
	net := enrolledNet(t, 2, nil)
	rep, err := net.ctl.Run(context.Background(), figure1(t, policy.NamePeerToPeer),
		RunOptions{Iterations: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkSignal(t, rep, 8)
	if rep.Plan.Kind != policy.KindPipeline {
		t.Errorf("plan kind = %v", rep.Plan.Kind)
	}
	// Placement annotated on members.
	body := rep.Annotated.Find("GroupTask").Group
	if body.Find("Gaussian").Placement == "" || body.Find("PowerSpec").Placement == "" {
		t.Error("placement annotations missing")
	}
}

func TestControllerFallsBackToLocalWithoutPeers(t *testing.T) {
	net := enrolledNet(t, 0, nil)
	rep, err := net.ctl.Run(context.Background(), figure1(t, policy.NameParallel),
		RunOptions{Iterations: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkSignal(t, rep, 5)
	if rep.Plan.Kind != policy.KindLocal || len(rep.Peers) != 0 {
		t.Errorf("plan = %+v", rep.Plan)
	}
}

func TestControllerForceLocal(t *testing.T) {
	net := enrolledNet(t, 2, nil)
	rep, err := net.ctl.Run(context.Background(), figure1(t, policy.NameParallel),
		RunOptions{Iterations: 5, Seed: 1, ForceLocal: true})
	if err != nil {
		t.Fatal(err)
	}
	checkSignal(t, rep, 5)
	if len(rep.Dist.Remote) != 0 {
		t.Error("ForceLocal distributed anyway")
	}
}

func TestControllerCapabilityFiltering(t *testing.T) {
	net := enrolledNet(t, 3, func(i int) service.Options {
		return service.Options{CPUMHz: 500 * (i + 1), FreeRAMMB: 128} // 500, 1000, 1500
	})
	peers, err := net.ctl.DiscoverPeers(RunOptions{MinCPUMHz: 900})
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 {
		t.Fatalf("peers = %+v", peers)
	}
	// Sorted by descending CPU.
	if peers[0].ID != workerID(2) || peers[1].ID != workerID(1) {
		t.Errorf("order = %s, %s", peers[0].ID, peers[1].ID)
	}
}

// TestControllerPlansOpenBreakerPeerLast: Run orders its plan through
// the controller's health tracker, so the strongest-CPU peer, once its
// breaker is open, is planned after the healthy ones.
func TestControllerPlansOpenBreakerPeerLast(t *testing.T) {
	net := enrolledNet(t, 3, nil) // CPU ranks c, b, a
	net.ctl.Service().Health().ReportDead(workerID(2))
	rep, err := net.ctl.Run(context.Background(), figure1(t, policy.NameParallel),
		RunOptions{Iterations: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{workerID(1), workerID(0), workerID(2)}
	if !reflect.DeepEqual(rep.Plan.Replicas, want) {
		t.Fatalf("plan replicas = %v, want %v", rep.Plan.Replicas, want)
	}
}

func TestControllerPeerGroupFiltering(t *testing.T) {
	net := enrolledNet(t, 2, func(i int) service.Options {
		group := "cardiff"
		if i == 1 {
			group = "swansea"
		}
		return service.Options{CPUMHz: 1000, PeerGroup: group}
	})
	peers, err := net.ctl.DiscoverPeers(RunOptions{PeerGroup: "cardiff"})
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 1 || peers[0].ID != workerID(0) {
		t.Fatalf("peers = %+v", peers)
	}
}

func TestControllerRejectsBadInput(t *testing.T) {
	net := enrolledNet(t, 1, nil)
	if _, err := net.ctl.Run(context.Background(), figure1(t, policy.NameParallel),
		RunOptions{}); err == nil {
		t.Error("zero iterations accepted")
	}
	// Unknown unit in graph.
	bad := taskgraph.New("bad")
	bad.AddUnit("X", "no.such.Unit", 0, 1)
	if _, err := net.ctl.Run(context.Background(), bad, RunOptions{Iterations: 1}); err == nil {
		t.Error("invalid graph accepted")
	}
	// Unknown policy.
	g := figure1(t, "policy.Bogus")
	if _, err := net.ctl.Run(context.Background(), g, RunOptions{Iterations: 1}); err == nil {
		t.Error("unknown policy accepted")
	}
	// Two distributable groups.
	g2 := figure1(t, policy.NameParallel)
	extra := taskgraph.New("e")
	w, _ := units.NewTask("W2", signal.NameWave)
	extra.MustAdd(w)
	n, _ := units.NewTask("N2", "triana.flow.Null")
	extra.MustAdd(n)
	extra.ConnectNamed("W2", 0, "N2", 0)
	for _, task := range extra.Tasks {
		g2.MustAdd(task)
	}
	for _, conn := range extra.Connections {
		g2.Connections = append(g2.Connections, conn)
	}
	if _, err := g2.GroupTasks("G2", []string{"W2", "N2"}); err != nil {
		t.Fatal(err)
	}
	g2.Find("G2").ControlUnit = policy.NameParallel
	_, err := net.ctl.Run(context.Background(), g2, RunOptions{Iterations: 1})
	if err == nil || !strings.Contains(err.Error(), "one per run") {
		t.Errorf("two groups err = %v", err)
	}
}

func TestControllerLocalGroupControlRunsLocally(t *testing.T) {
	net := enrolledNet(t, 2, nil)
	rep, err := net.ctl.Run(context.Background(), figure1(t, policy.NameLocal),
		RunOptions{Iterations: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	checkSignal(t, rep, 4)
	if len(rep.Dist.Remote) != 0 {
		t.Error("local control unit distributed")
	}
}
