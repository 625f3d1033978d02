package service

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/lifecycle"
	"consumergrid/internal/metrics"
)

// MethodDrain asks the daemon to drain gracefully: stop admitting new
// farms and hosted jobs, finish in-flight work, retract adverts, hand
// off super-peer state, checkpoint, and report. Headers: "timeout"
// (Go duration, optional), "wait" ("1" blocks the reply until the
// drain completes). Idempotent — repeating it reports progress.
const MethodDrain = "triana.drain"

// DefaultDrainTimeout bounds the wait for in-flight work when no
// timeout is given (trianad's -drain-timeout flag overrides it).
const DefaultDrainTimeout = 30 * time.Second

// lifecycleMetrics are the daemon-lifecycle series, registered eagerly
// in New so a fresh daemon's first scrape lists them.
type lifecycleMetrics struct {
	drainInflight *metrics.Gauge     // farms + slots + hosted jobs + uncollected results during a drain
	ckptTotal     *metrics.Counter   // state_checkpoint_total
	ckptErrors    *metrics.Counter   // state_checkpoint_errors_total
	ckptBytes     *metrics.Counter   // state_checkpoint_bytes_total
	ckptSeconds   *metrics.Histogram // state_checkpoint_seconds
	restoreTotal  *metrics.Counter   // state_restore_total
}

func (s *Service) registerLifecycleMetrics() {
	reg := metrics.Default()
	peer := s.opts.PeerID
	s.lcMetrics = lifecycleMetrics{
		drainInflight: reg.Gauge(metrics.Series("drain_inflight", "peer", peer)),
		ckptTotal:     reg.Counter(metrics.Series("state_checkpoint_total", "peer", peer)),
		ckptErrors:    reg.Counter(metrics.Series("state_checkpoint_errors_total", "peer", peer)),
		ckptBytes:     reg.Counter(metrics.Series("state_checkpoint_bytes_total", "peer", peer)),
		ckptSeconds:   reg.Histogram(metrics.Series("state_checkpoint_seconds", "peer", peer)),
		restoreTotal:  reg.Counter(metrics.Series("state_restore_total", "peer", peer)),
	}
}

// LifecycleState reports where the daemon is in its lifecycle.
func (s *Service) LifecycleState() lifecycle.State {
	return s.lc.State()
}

// Draining reports whether a drain has begun (or the daemon has
// stopped). A draining daemon refuses new farms and hosted jobs but
// still finishes in-flight work.
func (s *Service) Draining() bool { return s.LifecycleState() >= lifecycle.Draining }

// Ready reports whether the daemon is admitting work: running, not
// draining, and with the donor idle gate open. The /readyz probe and
// supervisors key off this.
func (s *Service) Ready() bool {
	return s.LifecycleState() == lifecycle.Running && s.available.Load()
}

// DrainReport is what a completed (or in-progress) drain achieved.
type DrainReport struct {
	// AdvertsRetracted counts our published adverts tombstoned on the
	// overlay.
	AdvertsRetracted int
	// HandoffAdverts / HandoffChunks count super-peer store entries and
	// chunk replicas accepted by ring successors.
	HandoffAdverts int
	HandoffChunks  int
	// Drained is true when every in-flight farm, despatch slot and
	// hosted job finished, and every finished job's results were
	// collected, inside the drain timeout.
	Drained bool
	// Uncollected counts the finished jobs whose results their
	// controller had not finished collecting when the drain stopped
	// waiting: no triana.wait had been answered, or the job still held
	// outputs it listed by address, which the controller releases by
	// cancelling the ended job. A farm's outputs ride the wait reply or
	// are fetched from the donor, so each may be a chunk its controller
	// loses.
	Uncollected int
}

// drainState tracks one daemon's single drain.
type drainState struct {
	once sync.Once
	done chan struct{}

	mu  sync.Mutex
	rep DrainReport
}

// BeginDrain starts a graceful drain and returns a channel closed when
// it completes. Idempotent: every call returns the same channel, and
// only the first call's timeout is used. The sequence:
//
//  1. stop admitting — new farms get ErrDraining, triana.run is
//     quiesced at the wire, advert renewal stops;
//  2. retract our published adverts from the overlay;
//  3. wait (bounded by timeout) for in-flight farms, despatch slots
//     and hosted jobs to finish — in-flight farms still acquire slots
//     for their remaining chunks, so they complete rather than fail,
//     and jobs this daemon accepted run to their end instead of being
//     cancelled by the Close that follows the drain — and for each
//     finished job's results to be collected by a triana.wait and
//     its held outputs released;
//  4. hand off super-peer store entries and chunk replicas to ring
//     successors;
//  5. write a final state checkpoint.
//
// The daemon stays up (answering status RPCs, serving pipes) until
// Close; a supervisor typically calls Close as soon as the returned
// channel closes.
func (s *Service) BeginDrain(timeout time.Duration) <-chan struct{} {
	s.drains.once.Do(func() {
		if timeout <= 0 {
			timeout = DefaultDrainTimeout
		}
		s.lc.SetState(lifecycle.Draining)
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			// Nothing left to drain; don't spawn past Close's bg.Wait.
			close(s.drains.done)
			return
		}
		s.goBG(func() {
			defer close(s.drains.done)
			s.drain(timeout)
		})
	})
	return s.drains.done
}

// DrainReport returns the drain's progress so far; meaningful once
// BeginDrain has been called.
func (s *Service) DrainReport() DrainReport {
	s.drains.mu.Lock()
	defer s.drains.mu.Unlock()
	return s.drains.rep
}

func (s *Service) drain(timeout time.Duration) {
	span := s.tracer.Start("", "", "lifecycle.drain", s.opts.PeerID)
	defer span.End()
	var rep DrainReport

	// 1. Stop admitting. Order matters: the admission gate first so no
	// farm slips in between the wire quiesce and the scheduler flip.
	s.admit.beginDrain()
	s.mu.Lock() // see enterRun
	s.host.Quiesce(MethodRun)
	s.mu.Unlock()

	// 2. Retract our adverts so no controller discovers us mid-exit.
	if s.overlay != nil {
		n, err := s.overlay.RetractAll()
		rep.AdvertsRetracted = n
		if err != nil {
			s.logf("service: %s drain: retracting adverts: %v", s.opts.PeerID, err)
		}
	}
	s.drains.setReport(rep)

	// 3. Finish in-flight work. Farms registered before the drain keep
	// acquiring slots, and hosted jobs run on, as do run handlers that
	// got past the quiesce; we wait for all of them, and for the wait
	// that collects each finished job's results, feeding the progress
	// gauge. A job ends before its wait is answered, so its end alone
	// would let the Close that follows cut its results off.
	rep.Drained = s.admit.await(timeout, func(farms, inflight int) bool {
		hosted := s.hostedWork()
		rep.Uncollected = s.uncollected()
		s.lcMetrics.drainInflight.Set(float64(farms + inflight + hosted + rep.Uncollected))
		return farms == 0 && inflight == 0 && hosted == 0 && rep.Uncollected == 0
	})
	if !rep.Drained {
		s.logf("service: %s drain: timeout after %v with work in flight", s.opts.PeerID, timeout)
	}
	s.drains.setReport(rep)

	// 4. Hand off super-peer state to the ring's survivors.
	if s.overlaySuper != nil {
		hrep, err := s.overlaySuper.Handoff()
		rep.HandoffAdverts = hrep.Adverts
		rep.HandoffChunks = hrep.Chunks
		if err != nil {
			s.logf("service: %s drain: handoff: %v", s.opts.PeerID, err)
		}
	}
	s.drains.setReport(rep)

	// 5. Final checkpoint, after the in-flight farms wrote their last
	// journal entries.
	if err := s.CheckpointNow(); err != nil {
		s.logf("service: %s drain: final checkpoint: %v", s.opts.PeerID, err)
	}

	span.SetAttr("adverts_retracted", strconv.Itoa(rep.AdvertsRetracted))
	span.SetAttr("handoff_adverts", strconv.Itoa(rep.HandoffAdverts))
	span.SetAttr("handoff_chunks", strconv.Itoa(rep.HandoffChunks))
	span.SetAttr("drained", strconv.FormatBool(rep.Drained))
	span.SetAttr("uncollected", strconv.Itoa(rep.Uncollected))
	s.logf("service: %s drained (adverts retracted %d, handoff %d adverts / %d chunks, %d results uncollected, clean=%v)",
		s.opts.PeerID, rep.AdvertsRetracted, rep.HandoffAdverts, rep.HandoffChunks, rep.Uncollected, rep.Drained)
}

func (d *drainState) setReport(rep DrainReport) {
	d.mu.Lock()
	d.rep = rep
	d.mu.Unlock()
}

// handleDrain serves MethodDrain: kicks off (or reports) the drain.
func (s *Service) handleDrain(req *jxtaserve.Message) (*jxtaserve.Message, error) {
	timeout := DefaultDrainTimeout
	if h := req.Header("timeout"); h != "" {
		d, err := time.ParseDuration(h)
		if err != nil {
			return nil, fmt.Errorf("service: bad drain timeout %q: %w", h, err)
		}
		timeout = d
	}
	done := s.BeginDrain(timeout)
	if req.Header("wait") == "1" {
		select {
		case <-done:
		case <-time.After(timeout + 10*time.Second):
			return nil, fmt.Errorf("service: drain did not complete in time")
		case <-s.shutdown:
		}
	}
	rep := s.DrainReport()
	farms, inflight := s.admit.counts()
	reply := &jxtaserve.Message{}
	reply.SetHeader("state", s.LifecycleState().String())
	reply.SetHeader("farms", strconv.Itoa(farms))
	reply.SetHeader("inflight", strconv.Itoa(inflight))
	reply.SetHeader("advertsRetracted", strconv.Itoa(rep.AdvertsRetracted))
	reply.SetHeader("handoffAdverts", strconv.Itoa(rep.HandoffAdverts))
	reply.SetHeader("handoffChunks", strconv.Itoa(rep.HandoffChunks))
	reply.SetHeader("uncollected", strconv.Itoa(rep.Uncollected))
	reply.SetHeader("drained", strconv.FormatBool(rep.Drained))
	return reply, nil
}
