package core

import (
	"context"
	"math"
	"strconv"
	"testing"

	"time"

	"consumergrid/internal/controller"
	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/policy"
	"consumergrid/internal/simnet"
	"consumergrid/internal/types"
	"consumergrid/internal/units"
	"consumergrid/internal/units/dbase"
	"consumergrid/internal/units/unitio"
)

func newGrid(t *testing.T, peers int, opts GridOptions) *Grid {
	t.Helper()
	opts.Peers = peers
	g, err := NewGrid(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

func TestGridValidation(t *testing.T) {
	if _, err := NewGrid(GridOptions{Peers: -1}); err == nil {
		t.Error("negative peers accepted")
	}
}

func TestAllWorkflowsValidate(t *testing.T) {
	res := units.Resolver()
	for name, wf := range map[string]func() error{
		"figure1":  func() error { return Figure1Workflow(Figure1Options{}).Validate(res) },
		"galaxy":   func() error { return GalaxyWorkflow(GalaxyOptions{}).Validate(res) },
		"inspiral": func() error { return InspiralWorkflow(InspiralOptions{InjectOffset: 100}).Validate(res) },
		"db":       func() error { return DBPipelineWorkflow(DBPipelineOptions{}).Validate(res) },
	} {
		if err := wf(); err != nil {
			t.Errorf("%s workflow invalid: %v", name, err)
		}
	}
}

func TestFigure1OverGrid(t *testing.T) {
	grid := newGrid(t, 2, GridOptions{})
	rep, err := grid.Run(context.Background(), Figure1Workflow(Figure1Options{Samples: 512}),
		controller.RunOptions{Iterations: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	grapher := rep.Result().Unit("Grapher").(*unitio.Grapher)
	spec := grapher.Last().(*types.Spectrum)
	if got := spec.PeakFrequency(); math.Abs(got-1000) > 2*spec.Resolution {
		t.Errorf("peak at %g", got)
	}
	if rep.Plan.Kind != policy.KindParallel {
		t.Errorf("plan = %v", rep.Plan.Kind)
	}
}

func TestGalaxyFarmOverGrid(t *testing.T) {
	grid := newGrid(t, 3, GridOptions{})
	const frames = 9
	wf := GalaxyWorkflow(GalaxyOptions{Particles: 400, Width: 32, Height: 32})
	rep, err := grid.Run(context.Background(), wf, controller.RunOptions{
		Iterations: frames, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	anim := rep.Result().Unit("Animator").(*unitio.Animator)
	if !anim.Complete(frames) {
		t.Fatalf("animation incomplete: %d frames", len(anim.Frames()))
	}
	// Frames ordered and non-empty.
	fs := anim.Frames()
	for i, f := range fs {
		if f.Frame != i {
			t.Errorf("frame %d has index %d", i, f.Frame)
		}
		if f.MaxIntensity() <= 0 {
			t.Errorf("frame %d empty", i)
		}
	}
	// Work actually spread across peers.
	busy := 0
	for _, counts := range rep.Dist.Remote {
		if counts["Render"] > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("only %d peers rendered", busy)
	}
}

func TestInspiralOverGridFindsInjection(t *testing.T) {
	grid := newGrid(t, 2, GridOptions{})
	wf := InspiralWorkflow(InspiralOptions{
		ChunkSamples: 8192, Templates: 9, TemplateLen: 1024,
		InjectOffset: 3000, InjectAmplitude: 3,
	})
	rep, err := grid.Run(context.Background(), wf, controller.RunOptions{
		Iterations: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	results := rep.Result().Unit("Results").(*unitio.Grapher)
	tab, ok := results.Last().(*types.Table)
	if !ok {
		t.Fatalf("results hold %T", results.Last())
	}
	lagCol := tab.ColumnIndex("peakLag")
	snrCol := tab.ColumnIndex("snr")
	bestSNR, bestLag := 0.0, 0
	for _, row := range tab.Rows {
		snr, _ := strconv.ParseFloat(row[snrCol], 64)
		if snr > bestSNR {
			bestSNR = snr
			bestLag, _ = strconv.Atoi(row[lagCol])
		}
	}
	// The bank's nearest template (f0=120 with 9 templates over 40-200)
	// matches the injection exactly; allow a few samples of slack for the
	// correlation peak.
	if bestSNR < 5 || bestLag < 2995 || bestLag > 3005 {
		t.Errorf("best snr=%g lag=%d, want ~3000", bestSNR, bestLag)
	}
}

func TestDBPipelineOverGrid(t *testing.T) {
	grid := newGrid(t, 2, GridOptions{})
	wf := DBPipelineWorkflow(DBPipelineOptions{Rows: 300})
	rep, err := grid.Run(context.Background(), wf, controller.RunOptions{
		Iterations: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	verdict, ok := rep.Result().Unit("Verdicts").(*unitio.Grapher).Last().(*types.Table)
	if !ok {
		t.Fatal("no verdict table")
	}
	if !dbase.Passed(verdict) {
		t.Errorf("pipeline verification failed: %v", verdict.Rows)
	}
	hist, ok := rep.Result().Unit("Chart").(*unitio.Grapher).Last().(*types.Histogram)
	if !ok || hist.Total() != 300 {
		t.Errorf("histogram = %+v", hist)
	}
	if rep.Plan.Kind != policy.KindPipeline {
		t.Errorf("plan = %v", rep.Plan.Kind)
	}
}

func TestGridOverTCP(t *testing.T) {
	grid := newGrid(t, 1, GridOptions{Transport: jxtaserve.TCP{}})
	rep, err := grid.Run(context.Background(),
		Figure1Workflow(Figure1Options{Samples: 256}),
		controller.RunOptions{Iterations: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result().Unit("Grapher").(*unitio.Grapher).Seen() != 4 {
		t.Error("TCP grid run incomplete")
	}
}

func TestGridWithRequireCodeFetchesModules(t *testing.T) {
	grid := newGrid(t, 1, GridOptions{RequireCode: true})
	// Series are keyed by peer ID across the process: count the delta.
	before := grid.Workers[0].ChunkStore().Snapshot()
	_, err := grid.Run(context.Background(),
		Figure1Workflow(Figure1Options{Samples: 256}),
		controller.RunOptions{Iterations: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	after := grid.Workers[0].ChunkStore().Snapshot()
	fetches := after.FetchRing + after.FetchPeer + after.FetchController -
		(before.FetchRing + before.FetchPeer + before.FetchController)
	bytes := after.FetchedBytes - before.FetchedBytes
	if fetches == 0 || bytes == 0 {
		t.Errorf("no module fetches recorded (%d, %d)", fetches, bytes)
	}
}

// TestGridOverLatentSimnet runs the Figure 1 farm over the instrumented
// transport with per-message latency — a WAN-ish Consumer Grid rather
// than loopback — and checks the traffic accounting moved real bytes.
func TestGridOverLatentSimnet(t *testing.T) {
	net := simnet.New()
	net.Latency = 2 * time.Millisecond
	grid := newGrid(t, 2, GridOptions{Transport: net})
	start := time.Now()
	rep, err := grid.Run(context.Background(),
		Figure1Workflow(Figure1Options{Samples: 256}),
		controller.RunOptions{Iterations: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result().Unit("Grapher").(*unitio.Grapher).Seen() != 6 {
		t.Error("latent run incomplete")
	}
	if net.Messages() < 20 {
		t.Errorf("only %d messages crossed the simnet", net.Messages())
	}
	if net.Bytes() < 10000 {
		t.Errorf("only %d bytes crossed the simnet", net.Bytes())
	}
	// Sanity: the run actually paid latency (>= a few round trips).
	if time.Since(start) < 10*time.Millisecond {
		t.Error("latency apparently not applied")
	}
}
