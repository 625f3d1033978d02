package experiments

import (
	"context"
	"math"
	"math/rand"
	"strconv"
	"time"

	"consumergrid/internal/churn"
	"consumergrid/internal/controller"
	"consumergrid/internal/core"
	"consumergrid/internal/dsp"
	"consumergrid/internal/metrics"
	"consumergrid/internal/types"
	"consumergrid/internal/units/dbase"
	"consumergrid/internal/units/unitio"
)

// E1 reproduces §3.6.1: the galaxy-formation animation farmed out with
// the parallel distribution policy. Two measurements: (a) a live
// distributed run validating the mechanism — frames actually execute on
// the enrolled peers and the Animator reassembles them in order despite
// out-of-order arrival ("Each distributed Triana service returns its
// processed data in order, allowing the frames to be animated"); and (b)
// a farm-speedup projection in virtual time from the measured SPH render
// cost, because this reproduction runs all peers inside one process on
// one machine — wall-clock speedup needs distinct CPUs, which the
// simulator models (a DESIGN.md ledger substitution; the live run
// demonstrates the distribution path is real).
func E1(cfg Config) (*Result, error) {
	cfg.defaults()
	shapeOK := true

	// (a) Live distributed run over 3 peers.
	frames := 12 * cfg.Scale
	live := metrics.NewTable("E1a: live frame farm over 3 peers",
		"frames", "peersRendering", "ordered", "wall")
	wf := core.GalaxyWorkflow(core.GalaxyOptions{
		Particles: 2000, Width: 96, Height: 96, Seed: cfg.Seed})
	rep, wall, err := runOnGrid(3, wf, controller.RunOptions{
		Iterations: frames, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	anim := rep.Result().Unit("Animator").(*unitio.Animator)
	ordered := anim.Complete(frames)
	rendering := 0
	for _, counts := range rep.Dist.Remote {
		if counts["Render"] > 0 {
			rendering++
		}
	}
	live.AddRow(frames, rendering, ordered, wall)
	if !ordered || rendering < 2 {
		shapeOK = false
	}

	// (b) Measure the real per-frame render cost, then project the farm
	// over k peers in virtual time.
	gu, err := unitsNew(astroGalaxyGen, map[string]string{"particles": "12000", "seed": "42"})
	if err != nil {
		return nil, err
	}
	gen := gu.(interface {
		SnapshotAt(int) *types.ParticleSet
	})
	cu, err := unitsNew(imagingColumnDensity, map[string]string{"width": "192", "height": "192"})
	if err != nil {
		return nil, err
	}
	renderer := cu.(interface {
		Render(*types.ParticleSet) *types.Image
	})
	ps := gen.SnapshotAt(3)
	var frameCost metrics.Timer
	for i := 0; i < 3; i++ {
		start := time.Now()
		renderer.Render(ps)
		frameCost.Observe(time.Since(start))
	}
	perFrame := frameCost.Mean().Seconds()

	proj := metrics.NewTable("E1b: farm speedup projection (measured frame cost, virtual time)",
		"peers", "frames", "availability", "makespanSec", "speedup")
	const projFrames = 64
	tasks := make([]float64, projFrames)
	for i := range tasks {
		tasks[i] = perFrame
	}
	horizon := perFrame * projFrames * 2
	var base float64
	for _, k := range []int{1, 2, 4, 8} {
		peers := make([]*churn.Trace, k)
		for i := range peers {
			peers[i] = churn.AlwaysUp(horizon)
		}
		res, err := churn.SimulateFarm(tasks, peers, churn.FarmOptions{})
		if err != nil {
			return nil, err
		}
		if k == 1 {
			base = res.Makespan
		}
		speedup := base / res.Makespan
		proj.AddRow(k, projFrames, "1.0", round2(res.Makespan), round2(speedup))
		if k == 8 && speedup < 6 {
			shapeOK = false
		}
	}
	// The consumer-grid variant: same farm at ~70% availability needs
	// more peers for the same turnaround.
	churnPeers := make([]*churn.Trace, 8)
	for i := range churnPeers {
		churnPeers[i] = churn.GenTrace(cfg.Seed+int64(i), horizon, 7*perFrame, 3*perFrame)
	}
	resChurn, err := churn.SimulateFarm(tasks, churnPeers, churn.FarmOptions{})
	if err != nil {
		return nil, err
	}
	proj.AddRow(8, projFrames, "~0.7", round2(resChurn.Makespan),
		round2(base/resChurn.Makespan))
	if resChurn.Makespan < base/8 {
		shapeOK = false
	}

	return &Result{
		Tables:    []*metrics.Table{live, proj},
		ShapeOK:   shapeOK,
		ShapeNote: "frames render on the enrolled peers and reassemble in order; projected farm speedup is near-linear, degraded by churn",
	}, nil
}

// E2 reproduces §3.6.2, in two parts. (a) The matched-filter kernel is
// measured at laptop scale and extrapolated with the paper's own numbers:
// 7.2 MB chunks (900 s x 2000 S/s x 4 B), banks of 5,000-10,000
// templates, the claim that one chunk takes ~5 h on a 2 GHz PC so "20
// PCs would need to be employed full-time to keep up with the data".
// (b) A live distributed run at laptop scale verifies the pipeline works
// end to end over the grid.
func E2(cfg Config) (*Result, error) {
	cfg.defaults()

	// (a) Kernel calibration: correlation cost per template per chunk.
	const paperChunk = 1_800_000 // samples: 900 s at 2000 S/s
	const paperRate = 2000.0
	chunk := 65536 * cfg.Scale
	tplLen := 2048
	bank := dsp.TemplateBank(4, tplLen, 40, 200, 400, paperRate)
	data := dsp.GaussianNoise(chunk, 1, rand.New(rand.NewSource(cfg.Seed)))
	// The bank runs through the kernel a donor's MatchedFilter runs
	// (paired templates, one shared signal transform, every core), each
	// series reduced in its visit; a template's cost is the run's wall
	// time over the bank's size.
	snr := make([]float64, len(bank))
	start := time.Now()
	if err := dsp.CrossCorrelateEach(context.Background(), data, bank, func(i int, corr []float64) {
		snr[i] = dsp.SNR(corr)
	}); err != nil {
		return nil, err
	}
	perTpl := time.Since(start) / time.Duration(len(bank))
	// FFT correlation is ~O(n log n); scale measured cost to paper-size
	// chunks.
	scale := float64(paperChunk) / float64(chunk) *
		logRatio(paperChunk, chunk)
	perTplPaper := time.Duration(float64(perTpl) * scale)

	calib := metrics.NewTable("E2a: matched-filter kernel calibration",
		"chunkSamples", "templateLen", "perTemplate", "perTemplate@1.8M(est)")
	calib.AddRow(chunk, tplLen, perTpl, perTplPaper)

	// Real-time requirement: sustain one 900 s chunk per 900 s of wall
	// time (latency may lag, per the paper). All quantities below are in
	// hours, matching the availability traces (mean uptime 7 h, mean
	// downtime 3 h - an evening-donor profile).
	sizing := metrics.NewTable("E2b: peers to keep up in real time (this hardware's kernel)",
		"templates", "chunkHours", "peers(avail=1.0)", "peers(avail=0.7)")
	shapeOK := true
	for _, templates := range []int{5000, 7500, 10000} {
		chunkCost := perTplPaper * time.Duration(templates)
		chunkHours := chunkCost.Hours()
		// Perfect peers: ceil(chunk cost / 15 min).
		perfect := int(ceilDiv(int64(chunkCost), int64(900*time.Second)))
		const chunks = 24
		var tasks, releases []float64
		for i := 0; i < chunks; i++ {
			tasks = append(tasks, chunkHours)
			releases = append(releases, 0.25*float64(i))
		}
		deadline := 0.25*chunks + 0.5 // half-hour lag allowance
		churny, _, err := churn.RequiredPeers(tasks, deadline, perfect*4+50,
			cfg.Seed, 7, 3, churn.FarmOptions{Releases: releases})
		if err != nil {
			return nil, err
		}
		sizing.AddRow(templates, round2(chunkHours), perfect, churny)
		if churny < perfect {
			shapeOK = false
		}
	}

	// (b) Live laptop-scale distributed search.
	live := metrics.NewTable("E2c: live distributed search (laptop scale)",
		"peers", "chunks", "templates", "wall", "injectionFound")
	wf := core.InspiralWorkflow(core.InspiralOptions{
		ChunkSamples: 16384, Templates: 9, TemplateLen: 1024,
		InjectOffset: 5000, InjectAmplitude: 3,
	})
	rep, wall, err := runOnGrid(3, wf, controller.RunOptions{
		Iterations: 3, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	tabData := rep.Result().Unit("Results").(*unitio.Grapher).Last()
	found := false
	if verdicts, ok := tabData.(*types.Table); ok {
		snrCol := verdicts.ColumnIndex("snr")
		lagCol := verdicts.ColumnIndex("peakLag")
		for _, row := range verdicts.Rows {
			snr, _ := strconv.ParseFloat(row[snrCol], 64)
			lag, _ := strconv.Atoi(row[lagCol])
			if snr > 5 && lag > 4990 && lag < 5010 {
				found = true
			}
		}
	}
	live.AddRow(3, 3, 9, wall, found)
	if !found {
		shapeOK = false
	}

	return &Result{
		Tables:    []*metrics.Table{calib, sizing, live},
		ShapeOK:   shapeOK,
		ShapeNote: "churn inflates the required farm beyond the perfect-peer count, and the live search locates the injected chirp",
	}, nil
}

// E3 reproduces §3.6.3: the four-stage database pipeline bound across
// peers via discovery, with the verification stage's verdicts and the
// visualisation histogram as outputs.
func E3(cfg Config) (*Result, error) {
	cfg.defaults()
	rows := 2000 * cfg.Scale
	wf := core.DBPipelineWorkflow(core.DBPipelineOptions{Rows: rows})
	rep, wall, err := runOnGrid(2, wf, controller.RunOptions{
		Iterations: 1, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	verdict, _ := rep.Result().Unit("Verdicts").(*unitio.Grapher).Last().(*types.Table)
	hist, _ := rep.Result().Unit("Chart").(*unitio.Grapher).Last().(*types.Histogram)

	tab := metrics.NewTable("E3: database service pipeline (Case 3)",
		"rows", "stagesRemote", "verified", "histogramRows", "wall")
	remoteStages := 0
	for _, counts := range rep.Dist.Remote {
		remoteStages += len(counts)
	}
	verified := verdict != nil && dbase.Passed(verdict)
	histN := 0.0
	if hist != nil {
		histN = hist.Total()
	}
	tab.AddRow(rows, remoteStages, verified, histN, wall)

	return &Result{
		Tables:    []*metrics.Table{tab},
		ShapeOK:   verified && remoteStages >= 2 && histN == float64(rows),
		ShapeNote: "manipulate and verify stages ran on distinct peers, verification passed, visualisation binned every row",
	}, nil
}

// ceilDiv is ceiling division for positive int64s.
func ceilDiv(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	return (a + b - 1) / b
}

// logRatio is log2(a)/log2(b), the O(n log n) cost-scaling factor.
func logRatio(a, b int) float64 {
	return math.Log2(float64(a)) / math.Log2(float64(b))
}
