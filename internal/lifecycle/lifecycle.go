// Package lifecycle gives the daemon a supervised spine: an ordered
// component runner (start in registration order, stop in reverse), a
// four-state lifecycle machine surfaced as a gauge (the service holds
// the daemon's one Machine), bounded-backoff supervision for components
// that crash, and a versioned CRC-checked snapshot container for
// crash-safe state (snapshot.go).
//
// The CERN peer-group work argues that availability in a JXTA-style
// grid comes from services that hand off and resume cleanly, not from
// nodes that never fail; this package is the machinery that lets
// trianad be such a service — SIGTERM drains instead of killing, a
// crashed subprocess restarts with backoff instead of silently dying,
// and a restarted daemon resumes from its last checkpoint.
//
//	Starting ──StartAll──▶ Running ──BeginDrain──▶ Draining ──Close──▶ Stopped
//	    └────────────────────────────────────────────────────────────────┘
//	                      (any state may jump to Stopped)
package lifecycle

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"consumergrid/internal/metrics"
)

// State is the daemon's lifecycle position, ordered so the exported
// gauge reads 0 = starting, 1 = running, 2 = draining, 3 = stopped.
type State int32

const (
	Starting State = iota
	Running
	Draining
	Stopped
)

// String names the state.
func (s State) String() string {
	switch s {
	case Starting:
		return "starting"
	case Running:
		return "running"
	case Draining:
		return "draining"
	case Stopped:
		return "stopped"
	default:
		return "unknown"
	}
}

// Machine is a daemon's lifecycle position and its exported
// lifecycle_state{peer} gauge. Moves are monotone except that any state
// may move to Stopped. Safe for concurrent use.
type Machine struct {
	state atomic.Int32
	gauge *metrics.Gauge
}

// NewMachine builds a machine in the Starting state whose gauge is
// registered on reg (default metrics.Default()) under owner.
func NewMachine(reg *metrics.Registry, owner string) *Machine {
	if reg == nil {
		reg = metrics.Default()
	}
	m := &Machine{gauge: reg.Gauge(metrics.Series("lifecycle_state", "peer", owner))}
	m.gauge.Set(float64(Starting))
	return m
}

// State reads the current lifecycle position.
func (m *Machine) State() State { return State(m.state.Load()) }

// SetState moves the machine and the exported gauge. Moves backwards
// (e.g. Draining → Running) are refused so a late goroutine cannot
// resurrect a draining daemon; Stopped is reachable from anywhere.
func (m *Machine) SetState(s State) {
	for {
		cur := m.state.Load()
		if s != Stopped && int32(s) < cur {
			return
		}
		if m.state.CompareAndSwap(cur, int32(s)) {
			m.gauge.Set(float64(s))
			return
		}
	}
}

// Component is one runner-owned daemon part. Start and Stop may each
// be nil (a component that only needs ordered teardown registers only
// Stop, and vice versa).
type Component struct {
	Name  string
	Start func() error
	Stop  func() error
}

// Options configures a Runner.
type Options struct {
	// Owner labels the runner's metric series, normally the peer ID.
	Owner string
	// Registry receives the lifecycle_* series (default metrics.Default()).
	Registry *metrics.Registry
	// Logf receives component start/stop/restart diagnostics; may be nil.
	Logf func(format string, args ...any)
}

// Runner owns a daemon's components: StartAll brings them up in
// registration order (unwinding already-started components on
// failure), StopAll tears them down in reverse, and Supervise wraps a
// crash-prone run loop in bounded-backoff restarts. All methods are
// safe for concurrent use.
type Runner struct {
	opts Options

	mu      sync.Mutex
	comps   []Component
	started int // prefix of comps currently running
}

// NewRunner builds a runner with no components.
func NewRunner(opts Options) *Runner { return &Runner{opts: opts} }

// Register appends a component. Components registered while the runner
// is already running are started by the next StartAll only; register
// everything before StartAll.
func (r *Runner) Register(c Component) {
	r.mu.Lock()
	r.comps = append(r.comps, c)
	r.mu.Unlock()
}

// StartAll starts every registered component in order. On the first
// failure the components already started are stopped in reverse and
// the error returned — the daemon either comes up whole or not at all.
func (r *Runner) StartAll() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := r.started; i < len(r.comps); i++ {
		c := r.comps[i]
		if c.Start != nil {
			if err := c.Start(); err != nil {
				r.logf("lifecycle: component %s failed to start: %v", c.Name, err)
				r.stopPrefixLocked()
				return fmt.Errorf("lifecycle: starting %s: %w", c.Name, err)
			}
		}
		r.logf("lifecycle: component %s started", c.Name)
		r.started = i + 1
	}
	return nil
}

// StopAll stops every started component in reverse registration order.
// Every Stop runs even when an earlier one errors; the first error is
// returned.
func (r *Runner) StopAll() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stopPrefixLocked()
}

// stopPrefixLocked unwinds the started prefix in reverse. Callers hold
// r.mu.
func (r *Runner) stopPrefixLocked() error {
	var first error
	for i := r.started - 1; i >= 0; i-- {
		c := r.comps[i]
		if c.Stop != nil {
			if err := c.Stop(); err != nil {
				r.logf("lifecycle: component %s failed to stop: %v", c.Name, err)
				if first == nil {
					first = fmt.Errorf("lifecycle: stopping %s: %w", c.Name, err)
				}
				continue
			}
		}
		r.logf("lifecycle: component %s stopped", c.Name)
	}
	r.started = 0
	return first
}

// SuperviseOptions tunes one supervised component.
type SuperviseOptions struct {
	// Backoff is the delay before the first restart (default 100ms); it
	// doubles per consecutive crash up to MaxBackoff (default 30s) and
	// resets after a run that survived MaxBackoff.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// MaxRestarts bounds consecutive restarts; 0 means unlimited. When
	// the budget is spent the component stays down (logged) until the
	// runner stops.
	MaxRestarts int
}

func (o SuperviseOptions) withDefaults() SuperviseOptions {
	if o.Backoff <= 0 {
		o.Backoff = 100 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 30 * time.Second
	}
	return o
}

// Supervise registers a component whose run loop is restarted with
// exponential backoff when it returns an error. run must watch stop
// and return promptly (nil) when it closes; a nil return at any other
// time also ends supervision (a deliberate exit is not a crash).
func (r *Runner) Supervise(name string, run func(stop <-chan struct{}) error, opts SuperviseOptions) {
	opts = opts.withDefaults()
	reg := r.opts.Registry
	if reg == nil {
		reg = metrics.Default()
	}
	restarts := reg.Counter(metrics.Series("lifecycle_restarts_total", "peer", r.opts.Owner, "component", name))
	var stop chan struct{}
	var done chan struct{}
	r.Register(Component{
		Name: name,
		Start: func() error {
			stop = make(chan struct{})
			done = make(chan struct{})
			go func() {
				defer close(done)
				backoff := opts.Backoff
				crashes := 0
				for {
					started := time.Now()
					err := run(stop)
					select {
					case <-stop:
						return
					default:
					}
					if err == nil {
						return // deliberate exit
					}
					if time.Since(started) > opts.MaxBackoff {
						// A long healthy run earns a fresh crash budget.
						crashes, backoff = 0, opts.Backoff
					}
					crashes++
					restarts.Inc()
					if opts.MaxRestarts > 0 && crashes > opts.MaxRestarts {
						r.logf("lifecycle: component %s crashed %d times, giving up: %v", name, crashes-1, err)
						return
					}
					r.logf("lifecycle: component %s crashed (restart %d in %v): %v", name, crashes, backoff, err)
					select {
					case <-stop:
						return
					case <-time.After(backoff):
					}
					backoff *= 2
					if backoff > opts.MaxBackoff {
						backoff = opts.MaxBackoff
					}
				}
			}()
			return nil
		},
		Stop: func() error {
			close(stop)
			<-done
			return nil
		},
	})
}

func (r *Runner) logf(format string, args ...any) {
	if r.opts.Logf != nil {
		r.opts.Logf(format, args...)
	}
}
