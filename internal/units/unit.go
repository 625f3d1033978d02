// Package units defines the Triana unit model: a unit is a reusable
// processing component with typed input/output nodes and string-keyed
// parameters ("There are several hundred units (i.e. programs) and
// networks of units can be created by graphical connections", §3.1).
//
// The package holds the unit interface, the parameter model, the process
// context (sandbox, randomness, logging) and a global registry keyed by
// dotted unit names ("triana.signal.Wave"). Concrete units live in the
// toolbox subpackages (signal, mathx, imaging, textproc, flow, unitio,
// astro, dbase), each of which registers its units in init.
package units

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"

	"consumergrid/internal/sandbox"
	"consumergrid/internal/types"
)

// Unit is one processing component instance. Instances are created by the
// registry factory, configured once with Init, and then invoked once per
// datum (or once per iteration for source units). A Unit instance is
// owned by a single engine task and is never called concurrently with
// itself, but distinct instances of the same unit run in parallel.
type Unit interface {
	// Name reports the registered unit name.
	Name() string

	// Init configures the unit from its task parameters. It is called
	// exactly once, before the first Process call. Implementations must
	// reject malformed parameters here rather than failing mid-run.
	Init(p Params) error

	// Process consumes one datum per connected input node and produces
	// one datum per output node. Source units (no inputs) are called with
	// an empty slice once per iteration; sink units return an empty
	// slice. Returning an error aborts the task graph run.
	Process(ctx *Context, in []types.Data) ([]types.Data, error)
}

// Resettable is implemented by stateful units (e.g. AccumStat) that can
// clear accumulated state when a CtlReset control signal arrives.
type Resettable interface {
	Reset()
}

// Checkpointable is implemented by stateful units whose state can migrate
// between peers, supporting the check-pointing mechanism the paper
// proposes for the inspiral search (§3.6.2: "A check-pointing mechanism
// may also be employed to migrate computation if necessary").
type Checkpointable interface {
	// Checkpoint serialises the unit's mutable state.
	Checkpoint() ([]byte, error)
	// Restore replaces the unit's state with a previous Checkpoint.
	Restore([]byte) error
}

// Context carries per-run facilities into Process.
type Context struct {
	// Ctx is the cancellation context of the enclosing run.
	Ctx context.Context
	// Sandbox gates resource access; never nil during engine runs.
	Sandbox *sandbox.Sandbox
	// Seed is the graph seed; with TaskName it names the task's random
	// stream (see Rand).
	Seed int64
	// Iteration counts Process invocations for the owning task, from 0.
	Iteration int
	// TaskName is the task-graph name of the owning task instance.
	TaskName string
	// Logf reports diagnostics to the hosting service's log; may be nil.
	Logf func(format string, args ...any)

	rng *rand.Rand // built by the first Rand call
}

// Rand returns the task's deterministic random source, seeded from Seed
// and TaskName so distributed and local runs of the same graph draw
// identical streams per task. The source is built on first use: few
// units draw from it, and each source costs a ~4.9 KB seeding. Like
// Process, Rand is not safe for concurrent use.
func (c *Context) Rand() *rand.Rand {
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(taskSeed(c.Seed, c.TaskName)))
	}
	return c.rng
}

// taskSeed hashes "<seed>/<taskName>" with FNV-64a.
func taskSeed(seed int64, taskName string) int64 {
	h := fnv.New64a()
	h.Write([]byte(strconv.FormatInt(seed, 10) + "/" + taskName))
	return int64(h.Sum64())
}

// Log writes to the context logger when one is attached.
func (c *Context) Log(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Canceled reports whether the run has been cancelled.
func (c *Context) Canceled() bool {
	if c.Ctx == nil {
		return false
	}
	select {
	case <-c.Ctx.Done():
		return true
	default:
		return false
	}
}

// TestContext returns a Context suitable for unit tests: background
// context, deny-all sandbox, and Rand drawing from rand.NewSource(1),
// the fixed stream unit tests are calibrated against.
func TestContext() *Context {
	return &Context{
		Ctx:     context.Background(),
		Sandbox: sandbox.New(sandbox.Deny()),
		rng:     rand.New(rand.NewSource(1)),
	}
}

// ErrArity is returned by CheckArity on input-count mismatch.
type ErrArity struct {
	Unit      string
	Want, Got int
}

func (e *ErrArity) Error() string {
	return fmt.Sprintf("units: %s expects %d inputs, got %d", e.Unit, e.Want, e.Got)
}

// CheckArity validates the Process input count against the unit's
// declared input node count; toolbox units call it first thing.
func CheckArity(name string, want int, in []types.Data) error {
	if len(in) != want {
		return &ErrArity{Unit: name, Want: want, Got: len(in)}
	}
	for i, d := range in {
		if d == nil {
			return fmt.Errorf("units: %s input %d is nil", name, i)
		}
	}
	return nil
}
