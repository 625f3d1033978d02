// Command bench is gridbench: the consumer grid's one end-to-end
// benchmark. It stands a production-configured grid up inside this
// process, over loopback TCP, drives it through its public entry points
// with four workloads, checks every output, and reports the end-to-end
// metrics a user would see plus a per-layer decomposition of them. See
// README.md in this directory.
//
//	go run ./bench                      every workload, every metric
//	go run ./bench -repeat 2            two sets, checked for agreement
//	go run ./bench -compare a.json b.json
//	go run ./bench --workload farm_small --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload in this process; empty runs every workload, each in a process of its own")
		seed     = flag.Int64("seed", 1, "generates every input")
		seconds  = flag.Float64("seconds", 20, "length of the measured window")
		traced   = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		out      = flag.String("out", filepath.Join("bench", "out"), "directory for result and trace files")
		repeat   = flag.Int("repeat", 1, "run this many full sets and check that consecutive sets agree within the bounds")
		compare  = flag.Bool("compare", false, "compare the two result files given as arguments, using the bounds")
		manifest = flag.String("manifest", "BENCHMARK.json", "the benchmark's declaration, for -repeat and -compare")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced, *out, *repeat, *compare, *manifest, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced int, out string, repeat int, compare bool, manifest string, args []string) error {
	if seconds <= 0 || repeat < 1 || traced < 0 || traced > 1 {
		return fmt.Errorf("need -seconds > 0, -repeat >= 1 and -trace 0 or 1")
	}
	window := time.Duration(seconds * float64(time.Second))
	switch {
	case compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(manifest, args[0], args[1])
	case name != "":
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		return runOne(w, seed, window, traced == 1, out)
	default:
		return runSets(seed, seconds, out, repeat, manifest)
	}
}

// environment is what a result has to be read against.
type environment struct {
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
}

func readEnvironment() environment {
	commit := "unknown" // a checkout need not be a git repository
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	return environment{GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: procs, Commit: commit}
}

// runFile is the detailed record one run leaves in the out directory.
type runFile struct {
	Workload string      `json:"workload"`
	Traced   bool        `json:"traced"`
	Seed     int64       `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Env      environment `json:"env"`
	// Noisy marks a run during which the machine's own speed moved by
	// more than noisyDrift, by the calibration kernel.
	Noisy bool `json:"noisy"`
	result
}

const noisyDrift = 0.10

func (f runFile) path(dir string) string {
	return filepath.Join(dir, fmt.Sprintf("run-%s-trace%d.json", f.Workload, btoi(f.Traced)))
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runOne runs one workload in this process and prints its metrics, the
// last line being the machine-readable summary.
func runOne(w workload, seed int64, window time.Duration, traced bool, out string) error {
	calibBefore := calibrate()
	var res *result
	var err error
	names := endToEnd
	if traced {
		names = perLayer
		res, err = trace(w, seed, window, out, fullSize)
	} else {
		res, err = measure(w, seed, window, fullSize)
	}
	if err != nil {
		return err
	}
	calibAfter := calibrate()
	drift := calibAfter/calibBefore - 1
	res.Metrics.put("harness.calib_drift", drift, "ratio", 0)
	res.Metrics.put("harness.calib_us", (calibBefore+calibAfter)/2, "us", 0)
	file := runFile{
		Workload: w.name, Traced: traced, Seed: seed, Seconds: window.Seconds(),
		Env: readEnvironment(), Noisy: math.Abs(drift) > noisyDrift, result: *res,
	}
	if err := writeJSON(file.path(out), file); err != nil {
		return err
	}

	fmt.Printf("%s seed=%d window=%v traced=%v: %d ops attempted, %d failed\n",
		w.name, seed, window, traced, res.Attempted, res.Failed)
	if res.FirstError != "" {
		fmt.Printf("first failure: %s\n", res.FirstError)
	}
	if file.Noisy {
		fmt.Printf("NOISY: the calibration kernel drifted %+.1f%% across this run\n", 100*drift)
	}
	var others []string
	for n := range res.Metrics {
		if !slices.Contains(names, n) {
			others = append(others, n)
		}
	}
	sort.Strings(others)
	printMetrics(res.Metrics, names)
	if len(others) > 0 {
		fmt.Println("also measured, not part of this run's summary:")
		printMetrics(res.Metrics, others)
	}

	summary := struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]summaryValue `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]summaryValue{}}
	for _, n := range names {
		m, ok := res.Metrics[n]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s was not measured on %s", n, w.name)
		}
		summary.Metrics[n] = summaryValue{m.Value, m.Unit}
	}
	b, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

type summaryValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printMetrics(m metricSet, names []string) {
	for _, n := range names {
		v := m[n]
		fmt.Printf("  %-40s %16.4f %-6s n=%d\n", n, v.Value, v.Unit, v.N)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// resultSet is one full set: every workload, untraced and traced.
type resultSet struct {
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Env     environment `json:"env"`
	Noisy   bool        `json:"noisy"`
	// Workloads maps workload name to its metrics, end-to-end and
	// per-layer together.
	Workloads map[string]*result `json:"workloads"`
}

// runSets runs full sets, each workload in a process of its own: the
// program's metrics registry, its tracer and whatever a closed peer
// leaves behind are process-wide, so workload order must not leak into
// the numbers.
func runSets(seed int64, seconds float64, out string, repeat int, manifest string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var prev *resultSet
	var disagreements []string
	for i := 0; i < repeat; i++ {
		set := &resultSet{Seed: seed, Seconds: seconds, Env: readEnvironment(), Workloads: map[string]*result{}}
		for _, w := range workloads {
			merged := &result{Metrics: metricSet{}}
			for traced := 0; traced <= 1; traced++ {
				cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
					"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(traced), "-out", out)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s (trace %d): %w", w.name, traced, err)
				}
				var file runFile
				if err := readJSON(runFile{Workload: w.name, Traced: traced == 1}.path(out), &file); err != nil {
					return err
				}
				set.Noisy = set.Noisy || file.Noisy
				merged.Attempted += file.Attempted
				merged.Failed += file.Failed
				for n, m := range file.Metrics {
					merged.Metrics[n] = m
				}
			}
			set.Workloads[w.name] = merged
		}
		path := filepath.Join(out, fmt.Sprintf("result-%d.json", i+1))
		if err := writeJSON(path, set); err != nil {
			return err
		}
		fmt.Printf("set %d of %d written to %s (noisy=%v)\n", i+1, repeat, path, set.Noisy)
		if prev != nil {
			d, err := disagree(manifest, prev, set)
			if err != nil {
				return err
			}
			disagreements = append(disagreements, d...)
		}
		prev = set
	}
	return reportDisagreements(disagreements)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
