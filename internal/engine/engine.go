// Package engine executes a Triana task graph on the local resource: it
// is the "Triana engine" of the paper's two-layer architecture (§3.1),
// shared by the GUI-less controller and by every service daemon. One
// goroutine runs per task; connections are Go channels; a run drives the
// source units for a fixed number of iterations and drains the graph.
//
// Groups are inlined before execution when run locally. When a service
// executes a distributed group body, the graph's ExternalIn/ExternalOut
// endpoints are wired to caller-supplied channels, which the jxtaserve
// pipe layer connects to the remote peer.
package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"consumergrid/internal/metrics"
	"consumergrid/internal/sandbox"
	"consumergrid/internal/taskgraph"
	"consumergrid/internal/trace"
	"consumergrid/internal/types"
	"consumergrid/internal/units"
)

// Live observability series, registered eagerly so /metrics lists them
// before the first run. The per-unit exec histogram additionally gets a
// labelled series per unit name (a fixed, small vocabulary).
var (
	execSeconds  = metrics.Default().Histogram("engine_unit_exec_seconds")
	cowClones    = metrics.Default().Counter("engine_cow_clones_total")
	fanoutShared = metrics.Default().Counter("engine_fanout_shared_total")
)

// connBuffer is the per-connection channel depth: any depth >= 1 lets a
// pipeline stream rather than lock-step.
const connBuffer = 4

// Options configures a run.
type Options struct {
	// Iterations is how many times each source unit fires. Non-source
	// units run until their inputs close. Must be >= 1.
	Iterations int
	// Sandbox applied to every unit; nil means a deny-all sandbox.
	Sandbox *sandbox.Sandbox
	// Seed makes the run deterministic: each task's random source is
	// derived from Seed and the task name.
	Seed int64
	// Logf receives unit diagnostics; may be nil.
	Logf func(format string, args ...any)
	// ExternalIn supplies data for the graph's ExternalIn endpoints when
	// executing a distributed group body: index i feeds external input
	// node i. The engine reads one datum per iteration of the consuming
	// task and finishes when the channel closes.
	ExternalIn map[int]<-chan types.Data
	// ExternalOut receives data leaving the graph's ExternalOut
	// endpoints. The engine closes each channel when its producer
	// finishes.
	ExternalOut map[int]chan<- types.Data
	// RestoreState re-primes Checkpointable units before the run, keyed
	// by task name: the migration path of §3.6.2.
	RestoreState map[string][]byte
	// Trace, when set, records one span per task (named "unit:<task>")
	// under TraceID/TraceParent — how a despatched fragment's per-unit
	// work appears in the controller's end-to-end trace. Nil disables
	// span recording.
	Trace *trace.Recorder
	// TraceID and TraceParent place this run in a distributed trace;
	// both empty with a non-nil Trace starts a fresh trace.
	TraceID     string
	TraceParent string
}

// Result reports a completed run.
type Result struct {
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Processed counts Process invocations per task name.
	Processed map[string]int
	// State holds the post-run checkpoints of every Checkpointable unit,
	// keyed by task name.
	State map[string][]byte

	instances map[string]units.Unit
}

// Unit returns the unit instance that executed the named task, letting
// callers read sink state (Grapher.Last, Animator.Frames) after a run.
func (r *Result) Unit(taskName string) units.Unit { return r.instances[taskName] }

// connKey identifies one input endpoint.
type connKey struct {
	task string
	node int
}

// Run executes the graph and blocks until every task finishes or the
// context is cancelled. The graph is cloned and groups are inlined, so
// the caller's graph is never modified.
func Run(ctx context.Context, g *taskgraph.Graph, opts Options) (*Result, error) {
	if opts.Iterations < 1 {
		return nil, fmt.Errorf("engine: Iterations must be >= 1")
	}
	if opts.Sandbox == nil {
		opts.Sandbox = sandbox.New(sandbox.Deny())
	}

	work := g.Clone()
	for {
		groups := work.GroupNames()
		if len(groups) == 0 {
			break
		}
		for _, name := range groups {
			if err := work.Inline(name); err != nil {
				return nil, fmt.Errorf("engine: inlining %s: %w", name, err)
			}
		}
	}
	if err := work.Validate(units.Resolver()); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if work.HasCycle() {
		return nil, fmt.Errorf("engine: graph %q has a data-flow cycle", work.Name)
	}

	// Instantiate units.
	instances := make(map[string]units.Unit, len(work.Tasks))
	for _, t := range work.Tasks {
		u, err := units.New(t.Unit, units.Params(t.Params))
		if err != nil {
			return nil, fmt.Errorf("engine: task %s: %w", t.Name, err)
		}
		if blob, ok := opts.RestoreState[t.Name]; ok {
			cp, isCp := u.(units.Checkpointable)
			if !isCp {
				return nil, fmt.Errorf("engine: task %s has restore state but unit %s is not checkpointable",
					t.Name, t.Unit)
			}
			if err := cp.Restore(blob); err != nil {
				return nil, fmt.Errorf("engine: restoring %s: %w", t.Name, err)
			}
		}
		instances[t.Name] = u
	}

	// Wire channels. Every data connection gets one channel owned by its
	// producer side; input endpoints map 1:1 to a channel (validated).
	// Internal fan-out edges and external output writers share one
	// delivery list per (task, node): the send path treats them
	// identically and closing the write side closes both kinds.
	inChans := make(map[connKey]chan types.Data)
	outs := make(map[string]map[int][]chan<- types.Data) // task -> out node -> targets
	for _, t := range work.Tasks {
		outs[t.Name] = make(map[int][]chan<- types.Data)
	}
	for _, c := range work.Connections {
		if c.Control {
			continue // control traffic is a policy-layer concern
		}
		ch := make(chan types.Data, connBuffer)
		inChans[connKey{c.To.Task, c.To.Node}] = ch
		outs[c.From.Task][c.From.Node] = append(outs[c.From.Task][c.From.Node], ch)
	}

	// External boundary wiring for group-body execution.
	extReaders := make(map[connKey]<-chan types.Data)
	for i, ch := range opts.ExternalIn {
		if i < 0 || i >= len(work.ExternalIn) {
			return nil, fmt.Errorf("engine: external input %d out of range (%d declared)",
				i, len(work.ExternalIn))
		}
		e := work.ExternalIn[i]
		key := connKey{e.Task, e.Node}
		if _, taken := inChans[key]; taken {
			return nil, fmt.Errorf("engine: external input %d collides with internal connection at %s", i, e)
		}
		extReaders[key] = ch
	}
	for i, ch := range opts.ExternalOut {
		if i < 0 || i >= len(work.ExternalOut) {
			return nil, fmt.Errorf("engine: external output %d out of range (%d declared)",
				i, len(work.ExternalOut))
		}
		e := work.ExternalOut[i]
		outs[e.Task][e.Node] = append(outs[e.Task][e.Node], ch)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	processed := make(map[string]int, len(work.Tasks))
	var procMu sync.Mutex

	for _, t := range work.Tasks {
		t := t
		u := instances[t.Name]

		// Ordered input channels for this task.
		type inputSrc struct {
			node int
			ch   <-chan types.Data
		}
		var inputs []inputSrc
		for node := 0; node < t.In; node++ {
			key := connKey{t.Name, node}
			if ch, ok := inChans[key]; ok {
				inputs = append(inputs, inputSrc{node, ch})
			} else if ch, ok := extReaders[key]; ok {
				inputs = append(inputs, inputSrc{node, ch})
			}
			// Unconnected input nodes are legal: the unit simply receives
			// fewer data (units check arity against *connected* inputs via
			// the graph shape, so we pass exactly the connected ones).
		}
		sort.Slice(inputs, func(i, j int) bool { return inputs[i].node < inputs[j].node })

		wg.Add(1)
		go func() {
			defer wg.Done()
			// Close everything this task produces when it finishes.
			defer func() {
				for _, targets := range outs[t.Name] {
					for _, ch := range targets {
						close(ch)
					}
				}
			}()

			// One span covers the task's whole lifetime in this run; the
			// per-iteration exec times go to the histogram series instead
			// (a span per iteration would swamp the recorder).
			span := opts.Trace.Start(opts.TraceID, opts.TraceParent, "unit:"+t.Name, "")
			span.SetAttr("unit", t.Unit)
			defer func() {
				procMu.Lock()
				n := processed[t.Name]
				procMu.Unlock()
				span.SetAttr("processed", fmt.Sprintf("%d", n))
				span.End()
			}()
			unitExec := metrics.Default().Histogram(
				metrics.Series("engine_unit_exec_seconds", "unit", t.Unit))

			uctx := &units.Context{
				Ctx:      runCtx,
				Sandbox:  opts.Sandbox,
				Seed:     opts.Seed,
				TaskName: t.Name,
				Logf:     opts.Logf,
			}

			// send delivers one datum to every edge of an output node.
			// Sealed data is shared across the whole fan-out (consumers
			// may only read it). Mutable data must never alias two
			// owners: every extra edge gets a deep clone taken while
			// the producer still exclusively holds d, and the original
			// is relinquished to the LAST edge only — a consumer may
			// start mutating the instant it receives a value, so
			// cloning d after any edge has it would race.
			send := func(node int, d types.Data) bool {
				edges := outs[t.Name][node]
				share := d.Immutable()
				if share && len(edges) > 1 {
					fanoutShared.Add(int64(len(edges) - 1))
				}
				for i, ch := range edges {
					v := d
					if !share && i < len(edges)-1 {
						v = d.Clone()
						cowClones.Inc()
					}
					select {
					case ch <- v:
					case <-runCtx.Done():
						return false
					}
				}
				return true
			}
			isSource := len(inputs) == 0

			for iter := 0; ; iter++ {
				if len(inputs) == 0 && iter >= opts.Iterations {
					return // source exhausted its iteration budget
				}
				// Gather one datum per connected input.
				in := make([]types.Data, len(inputs))
				for i, src := range inputs {
					select {
					case d, ok := <-src.ch:
						if !ok {
							return // upstream finished; we are done too
						}
						in[i] = d
					case <-runCtx.Done():
						return
					}
				}
				uctx.Iteration = iter
				procStart := time.Now()
				out, err := u.Process(uctx, in)
				procElapsed := time.Since(procStart)
				execSeconds.Observe(procElapsed.Seconds())
				unitExec.Observe(procElapsed.Seconds())
				// Charge the unit's wall time against the host's CPU
				// quota: a donated machine bounds what strangers may
				// burn, and a workflow that exhausts the budget is
				// terminated rather than throttled.
				if qErr := opts.Sandbox.ChargeCPU(procElapsed); qErr != nil && err == nil {
					err = qErr
				}
				procMu.Lock()
				processed[t.Name]++
				procMu.Unlock()
				if err != nil {
					fail(fmt.Errorf("engine: task %s (%s) iteration %d: %w", t.Name, t.Unit, iter, err))
					return
				}
				if len(out) > t.Out {
					fail(fmt.Errorf("engine: task %s emitted %d outputs, declares %d",
						t.Name, len(out), t.Out))
					return
				}
				for node, d := range out {
					if d == nil {
						continue // dropped datum (Sampler semantics)
					}
					if isSource {
						// Source outputs are sealed by default: snapshots
						// leaving a generator are read-only, so wide
						// fan-out graphs share one buffer instead of
						// cloning per edge. Downstream mutators take a
						// private copy via types.Mutable.
						types.Seal(d)
					}
					if !send(node, d) {
						return
					}
				}
			}
		}()
	}

	start := time.Now()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		cancel()
		<-done
		if firstErr == nil {
			firstErr = ctx.Err()
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	res := &Result{
		Elapsed:   time.Since(start),
		Processed: processed,
		State:     make(map[string][]byte),
		instances: instances,
	}
	for name, u := range instances {
		if cp, ok := u.(units.Checkpointable); ok {
			blob, err := cp.Checkpoint()
			if err != nil {
				return nil, fmt.Errorf("engine: checkpointing %s: %w", name, err)
			}
			res.State[name] = blob
		}
	}
	return res, nil
}
