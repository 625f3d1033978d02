package main

import (
	"math"
	"regexp"
	"runtime"
	"testing"
	"time"
)

// testSize shrinks everything but the code paths: one set-up, a
// twenty-fifth of the warm-up and traced ops, five calls per probe.
var testSize = sizing{setupRepeats: 1, opsDiv: 25, probeCalls: probeMin, donorLives: 2}

const testWindow = 300 * time.Millisecond

func readDeclaration(t *testing.T) declaration {
	t.Helper()
	var decl declaration
	if err := readJSON("../BENCHMARK.json", &decl); err != nil {
		t.Fatal(err)
	}
	return decl
}

// TestDeclarationMatchesProgram holds BENCHMARK.json to the contract's
// limits and to the names and workloads the program reports.
func TestDeclarationMatchesProgram(t *testing.T) {
	decl := readDeclaration(t)
	if len(decl.Workloads) != len(workloads) || len(decl.Workloads) != 4 {
		t.Fatalf("declared %d workloads, program has %d, want 4", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d declared as %q, program calls it %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why must be 1 to 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(decl.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(decl.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(kind string, declared []declared, program []string) {
		if len(declared) != len(program) {
			t.Errorf("%s: %d declared, program reports %d", kind, len(declared), len(program))
			return
		}
		for i, d := range declared {
			if d.Name != program[i] {
				t.Errorf("%s %d declared as %q, program reports %q", kind, i, d.Name, program[i])
			}
			if !name.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("%s name %q is malformed or used twice", kind, d.Name)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better is %q", d.Name, d.Better)
			}
		}
	}
	check("end-to-end metric", decl.EndToEnd, endToEnd)
	check("per-layer metric", decl.PerLayer, perLayer)
	setup := false
	for _, d := range decl.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// TestEveryWorkloadReportsEveryMetric runs each workload end to end,
// untraced and traced, at a fraction of its size, and checks that every
// declared metric comes out finite and in its declared unit, that no op
// fails, and that the budget reconciles.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	decl := readDeclaration(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	out := t.TempDir()
	for _, w := range workloads {
		plain, err := measure(w, 7, testWindow, testSize)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		traced, err := trace(w, 7, testWindow/2, out, testSize)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		traced.Metrics.put("harness.calib_drift", 0, "ratio", 0) // runOne's, not trace's
		for _, run := range []struct {
			res      *result
			declared []declared
		}{{plain, decl.EndToEnd}, {traced, decl.PerLayer}} {
			if run.res.Failed != 0 || run.res.Attempted < 1 {
				t.Errorf("%s: %d of %d ops failed: %s", w.name, run.res.Failed, run.res.Attempted, run.res.FirstError)
			}
			for _, d := range run.declared {
				m, ok := run.res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s not reported", w.name, d.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s = %g", w.name, d.Name, m.Value)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s reported in %q, declared in %q", w.name, d.Name, m.Unit, d.Unit)
				}
			}
		}
		for _, d := range decl.EndToEnd {
			if plain.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.name, d.Name, plain.Metrics[d.Name].Value)
			}
		}

		// Stages plus residual are the traced median, by construction.
		m := traced.Metrics
		sum := 0.0
		for _, stage := range []string{"select", "graph_encode", "marshal_digest", "wire_codec", "rpc", "transfer", "unit_exec", "residual"} {
			sum += m["budget."+stage+"_ms_per_op"].Value
		}
		p50 := m["traced_op_ms_p50"].Value
		if math.Abs(sum-p50) > 1e-9*math.Abs(p50) {
			t.Errorf("%s: budget stages and residual sum to %g ms, traced op_ms_p50 is %g", w.name, sum, p50)
		}
	}
}

// TestWrongReferenceFails shows the output checks have teeth: the same
// op that passes against the true reference fails against a corrupted one.
func TestWrongReferenceFails(t *testing.T) {
	for _, w := range workloads {
		g, err := standUp(w.donors)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		s := w.start(g, 7)
		if _, err := s.op(0); err != nil {
			t.Errorf("%s: op failed against the true reference: %v", w.name, err)
		}
		wrongReference = true
		_, err = s.op(0)
		wrongReference = false
		if err == nil {
			t.Errorf("%s: op passed against a wrong reference", w.name)
		}
		g.close()
	}
}
