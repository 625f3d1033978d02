// Package experiments implements the reproduction harness: one function
// per figure/table in DESIGN.md's experiment index (F1-F3, E1-E3, T1-T5,
// A1-A2). Each function runs the workload and returns one or more
// metrics.Tables with the rows the paper's evaluation would report;
// cmd/gridsim prints them and bench_test.go wraps them as benchmarks.
//
// Sizes default to laptop scale; Config scales them up. Where the paper's
// scale is unreachable (5,000-10,000 templates against 900-second chunks;
// hundreds of thousands of peers), the harness measures the laptop-scale
// kernel and extrapolates with the measured constants, printing both —
// the substitution recorded in DESIGN.md's ledger.
package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"consumergrid/internal/controller"
	"consumergrid/internal/core"
	"consumergrid/internal/metrics"
	"consumergrid/internal/taskgraph"
	"consumergrid/internal/types"
	"consumergrid/internal/units"
	"consumergrid/internal/units/unitio"
)

// Config scales the harness.
type Config struct {
	// Scale multiplies workload sizes (1 = laptop defaults).
	Scale int
	// Seed fixes all randomness.
	Seed int64
	// Verbose enables progress logging via Logf.
	Verbose bool
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

func (c *Config) defaults() {
	if c.Scale < 1 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

func (c *Config) logf(format string, args ...any) {
	if c.Verbose && c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Result bundles an experiment's output tables with its headline check.
type Result struct {
	// Tables holds the regenerated rows, one table per paper artefact.
	Tables []*metrics.Table
	// ShapeOK reports whether the qualitative claim the paper makes held
	// in this run (who wins, direction of trends); the specific check is
	// described in ShapeNote.
	ShapeOK   bool
	ShapeNote string
}

// Experiment is one reproducible artefact.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) (*Result, error)
}

// All lists every experiment in DESIGN.md order.
func All() []Experiment {
	return []Experiment{
		{"F1", "Figure 1 / Code Segment 1: task-graph round trip", F1},
		{"F2", "Figure 2: spectrum averaging recovers a buried signal", F2},
		{"F3", "Figures 3-4: controller/service control round trip", F3},
		{"E1", "Case 1 (§3.6.1): galaxy-formation frame farm speedup", E1},
		{"E2", "Case 2 (§3.6.2): inspiral search throughput and sizing", E2},
		{"E3", "Case 3 (§3.6.3): database service pipeline", E3},
		{"T1", "§3.6.2 sizing: peers required vs bank size and availability", T1},
		{"T2", "§4/ref[7]: discovery scalability (flood vs rendezvous vs central)", T2},
		{"T3", "§3: code-distribution overheads (graph vs bundles, cache budget)", T3},
		{"T4", "§3.3: distribution-policy comparison", T4},
		{"T5", "§2/§3.1: gateway launch (fork vs batch) and enrolment model", T5},
		{"T6", "§4 at scale: flood vs flat rendezvous vs super-peer overlay (1k-5k peers)", T6},
		{"T7", "Multi-tenant despatch plane: throughput fairness and p99 scheduling latency", T7},
		{"A1", "Ablation: checkpointing under churn", A1},
		{"A2", "Ablation: on-demand vs pre-staged code", A2},
		{"A3", "Live churn with failover (idle gates + parallel despatch)", A3},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- shared helpers ----------------------------------------------------------

// runOnGrid spins an in-proc grid, runs the workflow, tears down, and
// reports the wall time of the run call.
func runOnGrid(peers int, wf *taskgraph.Graph, opts controller.RunOptions) (*controller.Report, time.Duration, error) {
	grid, err := core.NewGrid(core.GridOptions{Peers: peers})
	if err != nil {
		return nil, 0, err
	}
	defer grid.Close()
	start := time.Now()
	rep, err := grid.Run(context.Background(), wf, opts)
	return rep, time.Since(start), err
}

// grapherSpectrum pulls the retained Spectrum out of a named Grapher sink.
func grapherSpectrum(rep *controller.Report, task string) (*types.Spectrum, error) {
	u := rep.Result().Unit(task)
	g, ok := u.(*unitio.Grapher)
	if !ok {
		return nil, fmt.Errorf("experiments: task %s is %T, not a Grapher", task, u)
	}
	spec, ok := g.Last().(*types.Spectrum)
	if !ok {
		return nil, fmt.Errorf("experiments: %s holds %T", task, g.Last())
	}
	return spec, nil
}

// spectralSNR is the Figure 2 visibility measure: the signal bin divided
// by the LARGEST background bin. A single noisy spectrum has exponential
// noise spikes rivalling the signal (the "buried" plot); averaging
// flattens the spikes toward the mean noise power, so the ratio grows
// with the iteration count even though the mean noise floor does not.
func spectralSNR(spec *types.Spectrum, signalHz, rate float64, n int) float64 {
	if len(spec.Amplitudes) == 0 {
		return 0
	}
	peakBin := int(signalHz / rate * float64(n))
	if peakBin >= len(spec.Amplitudes) {
		return 0
	}
	peak := spec.Amplitudes[peakBin]
	var maxBg float64
	for i, v := range spec.Amplitudes {
		if i >= peakBin-2 && i <= peakBin+2 {
			continue
		}
		if v > maxBg {
			maxBg = v
		}
	}
	if maxBg == 0 {
		return 0
	}
	return peak / maxBg
}

// round2 keeps table floats tidy.
func round2(x float64) float64 { return math.Round(x*100) / 100 }

// unitsNew and the unit-name aliases keep the experiment files free of
// direct toolbox imports where only reflection-style access is needed.
const (
	astroGalaxyGen       = "triana.astro.GalaxyGen"
	imagingColumnDensity = "triana.imaging.ColumnDensity"
)

func unitsNew(name string, params map[string]string) (units.Unit, error) {
	return units.New(name, units.Params(params))
}
