package health

import (
	"reflect"
	"testing"
	"time"

	"consumergrid/internal/metrics"
)

// fakeClock advances only when told, making breaker cooldowns
// deterministic.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestTracker(clk *fakeClock) *Tracker {
	return New(Options{
		Owner:       "test-observer",
		Registry:    metrics.NewRegistry(),
		Now:         clk.now,
		OpenTimeout: 100 * time.Millisecond,
	})
}

func TestBreakerOpensAfterConsecutiveFailures(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	tr := newTestTracker(clk)

	tr.ReportFailure("p")
	tr.ReportFailure("p")
	if got := tr.State("p"); got != Closed {
		t.Fatalf("state after 2 failures = %v, want closed", got)
	}
	tr.ReportFailure("p")
	if got := tr.State("p"); got != Open {
		t.Fatalf("state after 3 failures = %v, want open", got)
	}
	if tr.Usable("p") {
		t.Error("open peer reported usable")
	}

	// Cooldown elapses: half-open, one probe slot.
	clk.advance(150 * time.Millisecond)
	if got := tr.State("p"); got != HalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", got)
	}
	if ok, _ := tr.Admit("p"); !ok {
		t.Fatal("half-open peer refused its probe")
	}
	if ok, _ := tr.Admit("p"); ok {
		t.Fatal("second concurrent probe admitted while half-open")
	}
	tr.ReportSuccess("p", 10*time.Millisecond)
	if got := tr.State("p"); got != Closed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
}

func TestCooldownDoublesOnReopenAndHalvesOnClose(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	tr := newTestTracker(clk)

	for i := 0; i < 3; i++ {
		tr.ReportFailure("p")
	}
	// Failed probe: cooldown doubles to 200ms, so 150ms is not enough.
	clk.advance(150 * time.Millisecond)
	tr.ReportFailure("p")
	clk.advance(150 * time.Millisecond)
	if got := tr.State("p"); got != Open {
		t.Fatalf("state 150ms after escalated re-open = %v, want open (cooldown doubled)", got)
	}
	clk.advance(100 * time.Millisecond)
	if got := tr.State("p"); got != HalfOpen {
		t.Fatalf("state after full doubled cooldown = %v, want half-open", got)
	}
	// Successful probe halves the penalty back to the base.
	tr.ReportSuccess("p", time.Millisecond)
	for i := 0; i < 3; i++ {
		tr.ReportFailure("p")
	}
	clk.advance(150 * time.Millisecond)
	if got := tr.State("p"); got != HalfOpen {
		t.Fatalf("cooldown did not decay after close: state = %v", got)
	}
}

func TestReportDeadOpensImmediately(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	tr := newTestTracker(clk)

	tr.ReportDead("p")
	if got := tr.State("p"); got != Open {
		t.Fatalf("state after dead verdict = %v, want open", got)
	}
	// After the cooldown the peer must be probed, not trusted.
	clk.advance(150 * time.Millisecond)
	ok, needsProbe := tr.Admit("p")
	if !ok || !needsProbe {
		t.Fatalf("Admit after dead cooldown = (%v, %v), want (true, true)", ok, needsProbe)
	}
	tr.ReportSuccess("p", time.Millisecond)
	if tr.State("p") != Closed {
		t.Fatal("successful probe did not close a dead peer's breaker")
	}
	if _, needsProbe := tr.Admit("p"); needsProbe {
		t.Fatal("dead flag survived a successful probe")
	}
}

func TestByzantinePenaltyDropsScoreWithoutOpening(t *testing.T) {
	tr := newTestTracker(&fakeClock{t: time.Unix(0, 0)})

	tr.ReportByzantine("p")
	if got := tr.Score("p"); got != 0.25 {
		t.Fatalf("score after one byzantine verdict = %v, want 0.25", got)
	}
	if got := tr.State("p"); got != Closed {
		t.Fatalf("byzantine verdict opened the breaker: %v", got)
	}
	if !tr.Suspect("p") {
		t.Error("peer below threshold not flagged suspect")
	}
	tr.ReportByzantine("p")
	if got := tr.Score("p"); got != 0.0625 {
		t.Fatalf("score after two byzantine verdicts = %v, want 0.0625", got)
	}
}

func TestRankPrefersScoreThenKnownLatency(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	tr := newTestTracker(clk)

	// a: seen and healthy with latency history; b: unseen; c: failing;
	// d: breaker open.
	tr.ReportSuccess("a", 5*time.Millisecond)
	tr.ReportFailure("c")
	for i := 0; i < 3; i++ {
		tr.ReportFailure("d")
	}

	usable, gated := tr.Rank([]string{"b", "c", "d", "a"})
	if len(gated) != 1 || gated[0] != "d" {
		t.Fatalf("gated = %v, want [d]", gated)
	}
	// a's post-success score (1.0) ties the unseen b, but a has latency
	// history so it ranks first; c's decayed score ranks last.
	if want := []string{"a", "b", "c"}; len(usable) != 3 ||
		usable[0] != want[0] || usable[1] != want[1] || usable[2] != want[2] {
		t.Fatalf("usable = %v, want %v", usable, want)
	}
}

func TestRankStableAmongUnknownPeers(t *testing.T) {
	tr := newTestTracker(&fakeClock{t: time.Unix(0, 0)})
	usable, _ := tr.Rank([]string{"w1", "w2", "w3"})
	if usable[0] != "w1" || usable[1] != "w2" || usable[2] != "w3" {
		t.Fatalf("unknown peers reordered: %v", usable)
	}
}

// TestRankGatesOpenPeersLast: an open-breaker peer goes after every
// usable one, even one with a worse score.
func TestRankGatesOpenPeersLast(t *testing.T) {
	tr := newTestTracker(&fakeClock{t: time.Unix(0, 0)})
	tr.ReportDead("d") // open, score 0.7
	tr.ReportByzantine("a")
	usable, gated := tr.Rank([]string{"d", "a"})
	if !reflect.DeepEqual(usable, []string{"a"}) || !reflect.DeepEqual(gated, []string{"d"}) {
		t.Fatalf("Rank = %v, %v; want [a], [d]", usable, gated)
	}
}

// TestRankAllGatedOrderedByScore: when every peer's breaker is open, the
// gated list is still ordered best score first, as the forced fallback.
func TestRankAllGatedOrderedByScore(t *testing.T) {
	tr := newTestTracker(&fakeClock{t: time.Unix(0, 0)})
	tr.ReportDead("d") // open, score 0.7
	for i := 0; i < 3; i++ {
		tr.ReportFailure("b") // open, score 0.343
	}
	usable, gated := tr.Rank([]string{"b", "d"})
	if len(usable) != 0 || !reflect.DeepEqual(gated, []string{"d", "b"}) {
		t.Fatalf("all-gated Rank = %v, %v; want [], [d b]", usable, gated)
	}
}

// TestRankReadsLatencyQuantileRing: Rank's p90 tie-break and
// LatencyQuantile read one quantile of one ring — only the last
// latencyWindow samples count — and Rank uses it from the first sample,
// where LatencyQuantile waits for three.
func TestRankReadsLatencyQuantileRing(t *testing.T) {
	tr := newTestTracker(&fakeClock{t: time.Unix(0, 0)})
	for i := 0; i < latencyWindow; i++ {
		tr.ReportSuccess("x", 100*time.Millisecond)
		tr.ReportSuccess("y", 10*time.Millisecond)
	}
	for i := 0; i < latencyWindow; i++ {
		tr.ReportSuccess("x", time.Millisecond) // overwrites every 100ms sample
	}
	tr.ReportSuccess("z", 5*time.Millisecond)

	for id, want := range map[string]time.Duration{"x": time.Millisecond, "y": 10 * time.Millisecond} {
		if got, ok := tr.LatencyQuantile(id, 0.9); !ok || got != want {
			t.Errorf("LatencyQuantile(%s, 0.9) = %v, %v; want %v", id, got, ok, want)
		}
	}
	if _, ok := tr.LatencyQuantile("z", 0.9); ok {
		t.Error("LatencyQuantile answered from one sample")
	}
	usable, _ := tr.Rank([]string{"u", "y", "z", "x"})
	if want := []string{"x", "z", "y", "u"}; !reflect.DeepEqual(usable, want) {
		t.Fatalf("Rank = %v, want %v (ascending p90, unknown u last)", usable, want)
	}
}

func TestLatencyQuantiles(t *testing.T) {
	tr := newTestTracker(&fakeClock{t: time.Unix(0, 0)})
	if _, ok := tr.LatencyQuantile("p", 0.9); ok {
		t.Fatal("quantile reported with no samples")
	}
	for _, d := range []time.Duration{10, 20, 30, 40, 50, 60, 70, 80, 90, 100} {
		tr.ReportSuccess("p", d*time.Millisecond)
	}
	p50, ok := tr.LatencyQuantile("p", 0.5)
	if !ok || p50 < 40*time.Millisecond || p50 > 70*time.Millisecond {
		t.Errorf("p50 = %v (ok=%v), want ~50-60ms", p50, ok)
	}
	p90, ok := tr.LatencyQuantile("p", 0.9)
	if !ok || p90 < 90*time.Millisecond {
		t.Errorf("p90 = %v (ok=%v), want >= 90ms", p90, ok)
	}
}

func TestGaugesTrackStateAndScore(t *testing.T) {
	reg := metrics.NewRegistry()
	clk := &fakeClock{t: time.Unix(0, 0)}
	tr := New(Options{Owner: "obs", Registry: reg, Now: clk.now})

	tr.ReportSuccess("p", time.Millisecond)
	state := reg.Gauge(metrics.Series("health_breaker_state", "observer", "obs", "peer", "p"))
	score := reg.Gauge(metrics.Series("health_peer_score", "observer", "obs", "peer", "p"))
	if state.Value() != 0 {
		t.Errorf("breaker gauge = %v, want 0 (closed)", state.Value())
	}
	if score.Value() != 1.0 {
		t.Errorf("score gauge = %v, want 1.0", score.Value())
	}
	tr.ReportDead("p")
	if state.Value() != 2 {
		t.Errorf("breaker gauge after dead = %v, want 2 (open)", state.Value())
	}
	if score.Value() >= 1.0 {
		t.Errorf("score gauge did not decay: %v", score.Value())
	}
}

func TestSnapshotListsPeers(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	tr := newTestTracker(clk)
	tr.ReportSuccess("b", time.Millisecond)
	tr.ReportDead("a")
	tr.ReportByzantine("z")

	snap := tr.Snapshot()
	if len(snap) != 3 || snap[0].Peer != "a" || snap[1].Peer != "b" || snap[2].Peer != "z" {
		t.Fatalf("snapshot order/content wrong: %+v", snap)
	}
	if snap[0].State != Open || !snap[0].Dead {
		t.Errorf("dead peer snapshot: %+v", snap[0])
	}
	if !snap[2].Suspect {
		t.Errorf("byzantine peer not suspect: %+v", snap[2])
	}
}
