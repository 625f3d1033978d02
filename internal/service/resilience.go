// Resilient despatch: bounded retries with exponential backoff and
// jitter around the RPC surface, heartbeat-based failure detection, and
// a chunked farming loop that re-despatches failed work to alternate
// peers with checkpointed state restored via the §3.6.2 migration path.
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
package service

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/metrics"
)

// ResilienceOptions tunes retries, deadlines and failure detection for
// outbound despatch traffic. The zero value selects the defaults noted
// per field.
type ResilienceOptions struct {
	// RequestTimeout bounds each non-blocking RPC attempt (default 10s).
	// Blocking job waits never get a per-attempt deadline; they are
	// cancelled by the failure detector instead.
	RequestTimeout time.Duration
	// MaxAttempts bounds tries per RPC, first included (default 3).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt (default 25ms);
	// it doubles per retry, capped at MaxDelay (default 500ms), and each
	// sleep is jittered to 50–100% of the nominal value.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// HeartbeatInterval spaces failure-detector pings (default 1s);
	// each ping gets HeartbeatTimeout (default 1s). HeartbeatMisses
	// consecutive failures declare the peer dead (default 3).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	HeartbeatMisses   int
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
	if r.HeartbeatInterval <= 0 {
		r.HeartbeatInterval = time.Second
	}
	if r.HeartbeatTimeout <= 0 {
		r.HeartbeatTimeout = time.Second
	}
	if r.HeartbeatMisses <= 0 {
		r.HeartbeatMisses = 3
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
// (*jxtaserve.RPCError) never retry. timeout bounds each attempt; zero
// means no per-attempt deadline.
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

// StartHeartbeat probes a peer with triana.ping on the configured
// interval; after HeartbeatMisses consecutive failures it declares the
// peer dead, invokes onDead once, and stops. The returned stop function
// halts the detector (idempotent).
func (s *Service) StartHeartbeat(addr string, onDead func()) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	s.goBG(func() {
		misses := 0
		ticker := time.NewTicker(s.res.HeartbeatInterval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-s.shutdown:
				return
			case <-ticker.C:
			}
			if _, err := s.host.RequestTimeout(addr, MethodPing, nil, nil, s.res.HeartbeatTimeout); err != nil {
				misses++
				s.resStats.HeartbeatMisses.Inc()
				heartbeatMiss.Inc()
				if misses >= s.res.HeartbeatMisses {
					s.resStats.PeersDeclaredDead.Inc()
					s.logf("service: peer at %s declared dead after %d missed heartbeats", addr, misses)
					onDead()
					return
				}
			} else {
				misses = 0
				heartbeatOK.Inc()
			}
		}
	})
	return func() { once.Do(func() { close(done) }) }
}

// StartPeerHeartbeat runs the failure detector against a known peer and
// feeds the dead verdict into the health tracker before invoking
// onDead, so a heartbeat-declared-dead peer's breaker opens and
// selection skips it until a successful probe.
func (s *Service) StartPeerHeartbeat(peer PeerRef, onDead func()) (stop func()) {
	return s.StartHeartbeat(peer.Addr, func() {
		s.health.ReportDead(peer.ID)
		onDead()
	})
}
