// Package gateway implements the local resource managers a Triana peer
// may delegate execution to (§3.1: "The server component within each peer
// can interact with Globus GRAM to launch jobs locally on the node ...
// In the case where no local resource manager is available, the Triana
// server component can itself be used to launch the application").
//
// Two managers are provided: Fork runs jobs immediately (the
// shell-script/fork path of §2), and Batch is a slot-limited queue with
// GRAM-like job states, standing in for a cluster scheduler behind a
// gateway peer. Experiment T5 measures the launch-latency difference.
package gateway

import (
	"context"
	"fmt"
	"sync"
	"time"

	"consumergrid/internal/metrics"
)

// State is a job's lifecycle stage, mirroring GRAM's observable states.
type State int

// Job states.
const (
	// Pending: accepted, waiting for a slot.
	Pending State = iota
	// Active: running.
	Active
	// Done: completed without error.
	Done
	// Failed: completed with an error.
	Failed
	// Canceled: removed before or during execution.
	Canceled
)

// String names the state.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Active:
		return "active"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Canceled:
		return "canceled"
	default:
		return "unknown"
	}
}

// Terminal reports whether the state is final: Done, Failed or
// Canceled.
func (s State) Terminal() bool { return s >= Done }

// StateOf is the terminal state a job's Run error puts it in: nil is
// Done, context.Canceled is Canceled, anything else is Failed.
func StateOf(err error) State {
	switch {
	case err == nil:
		return Done
	case err == context.Canceled:
		return Canceled
	default:
		return Failed
	}
}

// Job is one unit of local execution.
type Job struct {
	// ID labels the job in handles and logs.
	ID string
	// Run performs the work; ctx is cancelled when the job is cancelled
	// or the manager shuts down.
	Run func(ctx context.Context) error
}

// ResourceManager launches jobs on the local node.
type ResourceManager interface {
	// Name identifies the manager type ("fork", "batch").
	Name() string
	// Submit enqueues a job, returning immediately with a handle.
	Submit(job Job) (*Handle, error)
	// Close stops accepting jobs, cancels pending ones and waits for
	// active jobs to finish.
	Close() error
}

// Handle tracks one submitted job.
type Handle struct {
	id string

	mu        sync.Mutex
	state     State
	err       error
	done      chan struct{}
	cancel    context.CancelFunc
	submitted time.Time
	started   time.Time
	finished  time.Time
}

func newHandle(id string) *Handle {
	return &Handle{id: id, done: make(chan struct{}), submitted: time.Now()}
}

// ID reports the job ID.
func (h *Handle) ID() string { return h.id }

// State reports the current lifecycle stage.
func (h *Handle) State() State {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// Wait blocks until the job reaches a terminal state and returns its
// error (nil for Done, context.Canceled for Canceled).
func (h *Handle) Wait() error {
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.err
}

// QueueWait reports how long the job waited before starting (zero until
// it starts; for cancelled-in-queue jobs, the wait until cancellation).
func (h *Handle) QueueWait() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.started.IsZero() {
		if h.finished.IsZero() {
			return 0
		}
		return h.finished.Sub(h.submitted)
	}
	return h.started.Sub(h.submitted)
}

// Cancel requests cancellation; pending jobs terminate immediately,
// active jobs get their context cancelled.
func (h *Handle) Cancel() {
	h.mu.Lock()
	cancel := h.cancel
	if h.state == Pending {
		h.state = Canceled
		h.err = context.Canceled
		h.finished = time.Now()
		close(h.done)
		h.mu.Unlock()
		return
	}
	h.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// markActive transitions Pending -> Active; returns false if the job was
// already cancelled.
func (h *Handle) markActive(cancel context.CancelFunc) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state != Pending {
		return false
	}
	h.state = Active
	h.started = time.Now()
	h.cancel = cancel
	return true
}

// finish transitions to a terminal state.
func (h *Handle) finish(err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state.Terminal() {
		return
	}
	h.finished = time.Now()
	h.state = StateOf(err)
	h.err = err
	close(h.done)
}

// --- Fork -------------------------------------------------------------------

// Fork starts every job immediately in its own goroutine.
type Fork struct {
	mu     sync.Mutex
	wg     sync.WaitGroup
	closed bool
	ctx    context.Context
	stop   context.CancelFunc
}

// NewFork returns a ready fork manager.
func NewFork() *Fork {
	ctx, stop := context.WithCancel(context.Background())
	return &Fork{ctx: ctx, stop: stop}
}

// Name implements ResourceManager.
func (f *Fork) Name() string { return "fork" }

// Submit implements ResourceManager.
func (f *Fork) Submit(job Job) (*Handle, error) {
	if job.Run == nil {
		return nil, fmt.Errorf("gateway: job %s has no Run", job.ID)
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, fmt.Errorf("gateway: fork manager closed")
	}
	f.wg.Add(1)
	f.mu.Unlock()

	h := newHandle(job.ID)
	ctx, cancel := context.WithCancel(f.ctx)
	go func() {
		defer f.wg.Done()
		defer cancel()
		if !h.markActive(cancel) {
			return
		}
		h.finish(job.Run(ctx))
	}()
	return h, nil
}

// Close implements ResourceManager.
func (f *Fork) Close() error {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.stop()
	f.wg.Wait()
	return nil
}

// --- Batch ------------------------------------------------------------------

// Batch is a slot-limited FIFO scheduler: at most Slots jobs run
// concurrently and the rest queue, as on a GRAM-fronted cluster.
type Batch struct {
	slots int

	mu      sync.Mutex
	queue   []*queuedJob
	active  int
	closed  bool
	ctx     context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
	waiting metrics.Timer
}

type queuedJob struct {
	job    Job
	handle *Handle
}

// NewBatch returns a batch manager with the given concurrent slots.
func NewBatch(slots int) (*Batch, error) {
	if slots < 1 {
		return nil, fmt.Errorf("gateway: batch needs >= 1 slot")
	}
	ctx, stop := context.WithCancel(context.Background())
	return &Batch{slots: slots, ctx: ctx, stop: stop}, nil
}

// Name implements ResourceManager.
func (b *Batch) Name() string { return "batch" }

// Slots reports the concurrency limit.
func (b *Batch) Slots() int { return b.slots }

// QueueWaits exposes the recorded queue-wait timer.
func (b *Batch) QueueWaits() *metrics.Timer { return &b.waiting }

// Submit implements ResourceManager.
func (b *Batch) Submit(job Job) (*Handle, error) {
	if job.Run == nil {
		return nil, fmt.Errorf("gateway: job %s has no Run", job.ID)
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, fmt.Errorf("gateway: batch manager closed")
	}
	h := newHandle(job.ID)
	b.queue = append(b.queue, &queuedJob{job: job, handle: h})
	b.mu.Unlock()
	b.dispatch()
	return h, nil
}

// dispatch starts queued jobs while slots are free.
func (b *Batch) dispatch() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.active < b.slots && len(b.queue) > 0 {
		qj := b.queue[0]
		b.queue = b.queue[1:]
		ctx, cancel := context.WithCancel(b.ctx)
		if !qj.handle.markActive(cancel) {
			cancel()
			continue // cancelled while queued
		}
		b.waiting.Observe(qj.handle.QueueWait())
		b.active++
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			defer cancel()
			qj.handle.finish(qj.job.Run(ctx))
			b.mu.Lock()
			b.active--
			b.mu.Unlock()
			b.dispatch()
		}()
	}
}

// QueueLength reports jobs waiting for a slot.
func (b *Batch) QueueLength() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queue)
}

// Close implements ResourceManager: pending jobs are cancelled, active
// jobs get their contexts cancelled, and Close waits for them.
func (b *Batch) Close() error {
	b.mu.Lock()
	b.closed = true
	pending := b.queue
	b.queue = nil
	b.mu.Unlock()
	for _, qj := range pending {
		qj.handle.Cancel()
	}
	b.stop()
	b.wg.Wait()
	return nil
}
