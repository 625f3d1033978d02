// Resilient despatch: bounded retries with exponential backoff and
// jitter around the RPC surface, the dead-peer verdict, and a chunked
// farming loop that re-despatches failed work to alternate peers with
// checkpointed state restored via the §3.6.2 migration path.
//
// The retry policy is built on jxtaserve's error taxonomy. A *DialError
// means the request never left this peer, so even the non-idempotent
// triana.run is safe to retry. A *RPCError means the remote handler ran
// and said no; retrying is pointless. Any other failure is a broken
// conversation with unknown remote side effects: idempotent methods
// (wait, status, cancel, ping) retry through it, triana.run does not —
// a duplicate job accepted by a lost reply would compute twice and
// double-bill (§3.8). FarmChunks recovers from exactly that residue by
// scoping every attempt to fresh pipe labels and discarding uncommitted
// output.
//
// Failure detection is the mux session's (jxtaserve, DESIGN §10.4): a
// peer that falls silent kills its session with ErrSessionSilent, which
// no request retries. A farm attempt that ends in that error, or in
// dials refused past the whole retry budget, declares its peer dead
// (declareDead) — the one place a verdict is made.
package service

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/metrics"
)

// ResilienceOptions tunes retries and deadlines for outbound despatch
// traffic; failure detection has no knobs (DESIGN §10.4). The zero
// value selects the defaults noted per field.
type ResilienceOptions struct {
	// RequestTimeout bounds each non-blocking RPC attempt (default 10s).
	// Blocking job waits never get a deadline: one lasts as long as its
	// session lives, and ends when the peer falls silent.
	RequestTimeout time.Duration
	// MaxAttempts bounds tries per RPC, first included (default 3).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt (default 25ms);
	// it doubles per retry, capped at MaxDelay (default 500ms), and each
	// sleep is jittered to 50–100% of the nominal value.
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

// withDefaults fills unset knobs.
func (r ResilienceOptions) withDefaults() ResilienceOptions {
	if r.RequestTimeout <= 0 {
		r.RequestTimeout = 10 * time.Second
	}
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 3
	}
	if r.BaseDelay <= 0 {
		r.BaseDelay = 25 * time.Millisecond
	}
	if r.MaxDelay <= 0 {
		r.MaxDelay = 500 * time.Millisecond
	}
	return r
}

// Resilience exposes the live resilience counters (webstatus renders
// them; tests assert on them).
func (s *Service) Resilience() *metrics.ResilienceStats { return s.resStats }

// retrySeed seeds the backoff jitter so retry schedules replay
// deterministically.
const retrySeed = 1

// jitterRNG derives a per-request RNG from retrySeed and the request
// identity. Each requestRetry call owns its RNG outright — no
// shared lock on the retry hot path, and no cross-request coupling where
// one despatch's retries perturb another's schedule — while a given
// (seed, addr, method) still replays the identical backoff sequence, so
// tests stay deterministic. requestRetry builds it at the first retry
// only: seeding one costs a ~4.9 KB allocation, and most requests never
// retry.
func jitterRNG(addr, method string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%s", retrySeed, addr, method)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// requestRetry performs an RPC with the configured retry policy. Only
// idempotent methods retry after a conversation broke mid-exchange;
// non-idempotent ones retry dial failures alone. Remote handler errors
// (*jxtaserve.RPCError) and a silent peer's dead session never retry.
// timeout bounds each attempt; zero means no per-attempt deadline.
func (s *Service) requestRetry(ctx context.Context, addr, method string, payload []byte,
	headers map[string]string, idempotent bool, timeout time.Duration) (*jxtaserve.Message, error) {

	var lastErr error
	var rng *rand.Rand
	delay := s.res.BaseDelay
	for attempt := 1; attempt <= s.res.MaxAttempts; attempt++ {
		if attempt > 1 {
			s.resStats.Retries.Inc()
			if rng == nil {
				rng = jitterRNG(addr, method)
			}
			// Jittered exponential backoff: sleep 50–100% of the nominal
			// delay so synchronized retry storms decorrelate.
			d := delay/2 + time.Duration(rng.Float64()*float64(delay/2))
			select {
			case <-ctx.Done():
				return nil, lastErr
			case <-s.retryAfter(d):
			}
			delay *= 2
			if delay > s.res.MaxDelay {
				delay = s.res.MaxDelay
			}
		}
		reply, err := s.host.RequestCtx(ctx, addr, method, payload, headers, timeout)
		if err == nil {
			return reply, nil
		}
		lastErr = err
		var rpcErr *jxtaserve.RPCError
		if errors.As(err, &rpcErr) {
			return nil, err // the remote handler ran: its answer is final
		}
		if errors.Is(err, jxtaserve.ErrSessionSilent) {
			return nil, err // the peer is gone: a verdict, not a blip
		}
		if !idempotent {
			var dialErr *jxtaserve.DialError
			if !errors.As(err, &dialErr) {
				return nil, err // request may have executed remotely
			}
		}
		if ctx.Err() != nil {
			return nil, lastErr
		}
	}
	return nil, lastErr
}

// declareDead is the one dead-peer verdict: it opens the peer's breaker
// at once when an attempt's despatch or wait ended because its session
// went silent, or because its dials were refused past requestRetry's
// whole budget (a shorter outage is retried through, not judged). A
// dial our own closed transport refused judges no one, and any other
// error is an ordinary failure, left to the caller's books.
func (s *Service) declareDead(peer PeerRef, err error) {
	var dialErr *jxtaserve.DialError
	if !errors.Is(err, jxtaserve.ErrSessionSilent) && !errors.As(err, &dialErr) ||
		errors.Is(err, jxtaserve.ErrClosed) {
		return
	}
	s.health.ReportDead(peer.ID)
	s.resStats.PeersDeclaredDead.Inc()
	s.logf("service: peer %s at %s declared dead: %v", peer.ID, peer.Addr, err)
}
