// Package health scores remote peers from observed despatch outcomes
// and gates each one behind a circuit breaker, so the farming loop and
// the policy planner can prefer live, honest, fast peers over blind
// round-robin (§3.8: consumer peers are slow, flaky and untrusted by
// construction).
//
// Each peer carries an EWMA success score (1.0 = perfect), a bounded
// ring of observed attempt latencies for quantile estimates, and a
// three-state breaker:
//
//	Closed ──(three consecutive failures, or a dead
//	          verdict from the failure detector)──▶ Open
//	Open ──(cooldown elapses)──▶ HalfOpen
//	HalfOpen ──(probe succeeds)──▶ Closed
//	HalfOpen ──(probe fails)──▶ Open (cooldown doubled)
//
// The cooldown is the decaying penalty: every re-open doubles it up to
// a minute, every close halves it back toward OpenTimeout, so a
// peer that flaps pays increasingly long exile while one that recovers
// earns its way back quickly. Byzantine verdicts (a quorum vote that
// went against the peer) do not open the breaker — the peer answered,
// it just lied — but multiply the score down so selection stops
// trusting it.
package health

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"time"

	"consumergrid/internal/metrics"
)

// State is a breaker position.
type State int

// Breaker states, ordered so the exported gauge reads 0 = closed,
// 1 = half-open, 2 = open.
const (
	Closed State = iota
	HalfOpen
	Open
)

// String names the state.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case HalfOpen:
		return "half-open"
	case Open:
		return "open"
	default:
		return "unknown"
	}
}

// Breaker and score tuning. No deployment has needed other values, so
// they are constants rather than options.
const (
	// failureThreshold consecutive failures open a closed breaker.
	failureThreshold = 3
	// maxOpenTimeout caps the cooldown, which doubles on every re-open.
	maxOpenTimeout = 60 * time.Second
	// alpha weights each new success/failure observation into the EWMA
	// score.
	alpha = 0.3
	// byzantineFactor multiplies a peer's score on each byzantine
	// verdict.
	byzantineFactor = 0.25
	// suspectThreshold is the score below which a peer counts as
	// suspect. Suspects stay selectable — their score already ranks
	// them last — but are flagged in snapshots.
	suspectThreshold = 0.5
	// latencyWindow bounds the per-peer latency ring.
	latencyWindow = 64
)

// Options tunes a Tracker. The zero value selects the defaults noted
// per field.
type Options struct {
	// OpenTimeout is the initial open→half-open cooldown (default 5s);
	// it doubles on every re-open up to maxOpenTimeout and halves on
	// every close back toward OpenTimeout.
	OpenTimeout time.Duration
	// Owner labels this tracker's metric series with the observing
	// peer's ID, so several trackers share one registry.
	Owner string
	// Registry receives the per-peer gauges (default metrics.Default()).
	Registry *metrics.Registry
	// Now overrides the clock for deterministic tests.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.OpenTimeout <= 0 {
		o.OpenTimeout = 5 * time.Second
	}
	if o.Registry == nil {
		o.Registry = metrics.Default()
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// peer is one tracked peer's live state. All fields are guarded by the
// tracker mutex.
type peer struct {
	score       float64 // EWMA success rate in [0,1], optimistic start 1.0
	latencies   []time.Duration
	latIdx      int
	latFull     bool
	state       State
	consecFails int
	openedAt    time.Time
	cooldown    time.Duration
	dead        bool // last verdict was the failure detector's
	suspect     bool // a quorum vote went against this peer
	probing     bool // the single half-open probe slot is claimed

	scoreGauge *metrics.Gauge
	stateGauge *metrics.Gauge
}

// Tracker scores a set of peers as observed by one peer (the Owner).
// All methods are safe for concurrent use.
type Tracker struct {
	opts Options

	mu    sync.Mutex
	peers map[string]*peer
	// sorted is latencyQuantile's sort scratch, guarded by mu.
	sorted [latencyWindow]time.Duration
}

// New builds a tracker.
func New(opts Options) *Tracker {
	return &Tracker{opts: opts.withDefaults(), peers: make(map[string]*peer)}
}

// get returns the peer record, creating it (and binding its gauges) on
// first sight. Callers hold t.mu.
func (t *Tracker) get(id string) *peer {
	p, ok := t.peers[id]
	if !ok {
		p = &peer{
			score:      1.0,
			latencies:  make([]time.Duration, latencyWindow),
			cooldown:   t.opts.OpenTimeout,
			scoreGauge: t.opts.Registry.Gauge(metrics.Series("health_peer_score", "observer", t.opts.Owner, "peer", id)),
			stateGauge: t.opts.Registry.Gauge(metrics.Series("health_breaker_state", "observer", t.opts.Owner, "peer", id)),
		}
		p.scoreGauge.Set(p.score)
		t.peers[id] = p
	}
	return p
}

// advance applies the lazy open→half-open transition. Callers hold t.mu.
func (t *Tracker) advance(p *peer) {
	if p.state == Open && t.opts.Now().Sub(p.openedAt) >= p.cooldown {
		p.state = HalfOpen
		p.probing = false
		p.stateGauge.Set(float64(p.state))
	}
}

// ReportSuccess records a completed attempt. d <= 0 means the caller
// has no latency sample (e.g. an RPC-level success where only the
// verdict matters); the score still improves. A success closes an open
// or half-open breaker and halves the cooldown penalty.
func (t *Tracker) ReportSuccess(id string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.get(id)
	p.score += alpha * (1 - p.score)
	p.consecFails = 0
	p.dead = false
	p.probing = false
	if p.state != Closed {
		p.state = Closed
		p.cooldown /= 2
		if p.cooldown < t.opts.OpenTimeout {
			p.cooldown = t.opts.OpenTimeout
		}
	}
	if d > 0 {
		p.latencies[p.latIdx] = d
		p.latIdx++
		if p.latIdx == len(p.latencies) {
			p.latIdx = 0
			p.latFull = true
		}
	}
	p.scoreGauge.Set(p.score)
	p.stateGauge.Set(float64(p.state))
}

// ReportFailure records a failed attempt: the score decays, and enough
// consecutive failures open the breaker. A failure while half-open (a
// failed probe) or open re-opens with a doubled cooldown.
func (t *Tracker) ReportFailure(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.get(id)
	t.advance(p)
	p.score *= 1 - alpha
	p.consecFails++
	p.probing = false
	switch p.state {
	case Closed:
		if p.consecFails >= failureThreshold {
			t.openLocked(p, false)
		}
	case HalfOpen, Open:
		t.openLocked(p, true)
	}
	p.scoreGauge.Set(p.score)
	p.stateGauge.Set(float64(p.state))
}

// ReportDead records a failure-detector verdict: the breaker opens
// immediately and the peer is flagged dead until a successful probe.
func (t *Tracker) ReportDead(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.get(id)
	p.score *= 1 - alpha
	p.consecFails++
	p.probing = false
	p.dead = true
	t.openLocked(p, p.state != Closed)
	p.scoreGauge.Set(p.score)
	p.stateGauge.Set(float64(p.state))
}

// ReportByzantine records a quorum vote against the peer: it answered,
// so the breaker stays as it is, but the score takes the multiplicative
// penalty and the peer is flagged suspect.
func (t *Tracker) ReportByzantine(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.get(id)
	p.score *= byzantineFactor
	p.suspect = true
	p.scoreGauge.Set(p.score)
}

// openLocked moves a peer to Open; escalate doubles the cooldown
// (re-open after a failed probe). Callers hold t.mu.
func (t *Tracker) openLocked(p *peer, escalate bool) {
	if escalate {
		p.cooldown *= 2
		if p.cooldown > maxOpenTimeout {
			p.cooldown = maxOpenTimeout
		}
	}
	p.state = Open
	p.openedAt = t.opts.Now()
	p.stateGauge.Set(float64(p.state))
}

// Score reads the peer's EWMA success score (1.0 for unseen peers).
func (t *Tracker) Score(id string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.peers[id]
	if !ok {
		return 1.0
	}
	return p.score
}

// State reads the peer's breaker state, applying the lazy cooldown
// transition (unseen peers are Closed).
func (t *Tracker) State(id string) State {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.peers[id]
	if !ok {
		return Closed
	}
	t.advance(p)
	return p.state
}

// Usable reports whether selection may consider the peer at all: any
// state but Open.
func (t *Tracker) Usable(id string) bool { return t.State(id) != Open }

// Suspect reports whether the peer's score has fallen below the
// selection threshold or it carries a byzantine verdict.
func (t *Tracker) Suspect(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.peers[id]
	if !ok {
		return false
	}
	return p.suspect || p.score < suspectThreshold
}

// Admit asks permission to despatch to the peer. Closed peers are
// always admitted. A half-open peer admits exactly one caller at a time
// (the probe); needsProbe additionally reports whether the peer's last
// verdict was dead, in which case the caller should ping before
// committing real work to it. Open peers are refused.
func (t *Tracker) Admit(id string) (ok, needsProbe bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok2 := t.peers[id]
	if !ok2 {
		return true, false
	}
	t.advance(p)
	switch p.state {
	case Closed:
		return true, false
	case HalfOpen:
		if p.probing {
			return false, false
		}
		p.probing = true
		return true, p.dead
	default:
		return false, false
	}
}

// LatencyQuantile estimates the q-th quantile (0 < q < 1) of the
// peer's observed attempt latencies. ok is false until at least three
// samples exist.
func (t *Tracker) LatencyQuantile(id string, q float64) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, okP := t.peers[id]
	if !okP {
		return 0, false
	}
	d, n := t.latencyQuantile(p, q)
	return d, n >= 3
}

// latencyQuantile returns the q-th quantile of p's latency ring and how
// many samples it was read from (0 if none). It sorts a copy in the
// tracker's scratch, so a quantile allocates nothing. Callers hold t.mu.
func (t *Tracker) latencyQuantile(p *peer, q float64) (time.Duration, int) {
	n := p.latIdx
	if p.latFull {
		n = len(p.latencies)
	}
	if n == 0 {
		return 0, 0
	}
	samples := t.sorted[:n]
	copy(samples, p.latencies[:n])
	slices.Sort(samples)
	idx := int(q * float64(n))
	if idx >= n {
		idx = n - 1
	}
	return samples[idx], n
}

// Rank orders candidate peers for selection. usable holds every
// non-open peer: descending score first; at equal scores, peers with
// latency history rank before unknown ones (ascending p90 among the
// known), and the stable sort keeps the caller's preference order among
// fully-unknown peers — so the first successful peer stays sticky.
// gated holds the open-breaker peers by descending score, the forced
// fallback when everything usable is exhausted.
func (t *Tracker) Rank(peers []string) (usable, gated []string) {
	type cand struct {
		id    string
		score float64
		p90   time.Duration
		known bool
		gated bool
	}
	t.mu.Lock()
	cands := make([]cand, 0, len(peers))
	for _, id := range peers {
		c := cand{id: id, score: 1.0}
		if p, ok := t.peers[id]; ok {
			t.advance(p)
			c.score = p.score
			var n int
			c.p90, n = t.latencyQuantile(p, 0.9)
			c.known = n > 0
			c.gated = p.state == Open
		}
		cands = append(cands, c)
	}
	t.mu.Unlock()
	slices.SortStableFunc(cands, func(a, b cand) int {
		if a.score != b.score {
			if a.score > b.score {
				return -1
			}
			return 1
		}
		if a.known != b.known {
			if a.known {
				return -1
			}
			return 1
		}
		if a.known && b.known && a.p90 != b.p90 {
			return cmp.Compare(a.p90, b.p90)
		}
		return 0
	})
	for _, c := range cands {
		if c.gated {
			gated = append(gated, c.id)
		} else {
			usable = append(usable, c.id)
		}
	}
	return usable, gated
}

// PeerHealth is one peer's externally visible health record.
type PeerHealth struct {
	Peer    string
	Score   float64
	State   State
	P50     time.Duration
	P90     time.Duration
	Dead    bool
	Suspect bool
}

// Snapshot lists every tracked peer, sorted by ID — the data behind the
// webstatus health table.
func (t *Tracker) Snapshot() []PeerHealth {
	t.mu.Lock()
	ids := make([]string, 0, len(t.peers))
	for id := range t.peers {
		ids = append(ids, id)
	}
	t.mu.Unlock()
	sort.Strings(ids)
	out := make([]PeerHealth, 0, len(ids))
	for _, id := range ids {
		t.mu.Lock()
		p := t.peers[id]
		t.advance(p)
		h := PeerHealth{
			Peer:    id,
			Score:   p.score,
			State:   p.state,
			Dead:    p.dead,
			Suspect: p.suspect || p.score < suspectThreshold,
		}
		t.mu.Unlock()
		h.P50, _ = t.LatencyQuantile(id, 0.5)
		h.P90, _ = t.LatencyQuantile(id, 0.9)
		out = append(out, h)
	}
	return out
}
