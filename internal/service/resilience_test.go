package service

import (
	"context"
	"slices"
	"testing"
	"time"

	"consumergrid/internal/jxtaserve"
)

// TestRetryJitterReplaysAndIsLazy: two requests to one dead address and
// method sleep the identical jittered backoff schedule, each sleep within
// 50–100% of its nominal delay; and a request that succeeds on its first
// attempt builds no jitter source, so it costs less over the bare RPC
// than one seeded math/rand source (4,864 B).
func TestRetryJitterReplaysAndIsLazy(t *testing.T) {
	tr := jxtaserve.NewInProc()
	res := ResilienceOptions{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond}
	ctl := newService(t, tr, "rj-ctl", Options{Resilience: res})
	worker := newService(t, tr, "rj-w", Options{})

	var slept []time.Duration
	ctl.retryAfter = func(d time.Duration) <-chan time.Time {
		slept = append(slept, d)
		fired := make(chan time.Time, 1)
		fired <- time.Time{}
		return fired
	}
	ctx := context.Background()
	schedule := func(method string) []time.Duration {
		slept = nil
		if _, err := ctl.requestRetry(ctx, "rj-dead", method, nil, nil, true, 0); err == nil {
			t.Fatalf("%s to a dead address succeeded", method)
		}
		return slept
	}
	first := schedule(MethodWait)
	if len(first) != res.MaxAttempts-1 {
		t.Fatalf("slept %d backoffs, want %d", len(first), res.MaxAttempts-1)
	}
	nominal := res.BaseDelay
	for i, d := range first {
		if d < nominal/2 || d > nominal {
			t.Errorf("backoff %d = %v, want within [%v, %v]", i, d, nominal/2, nominal)
		}
		nominal = min(2*nominal, res.MaxDelay)
	}
	if again := schedule(MethodWait); !slices.Equal(first, again) {
		t.Errorf("a second request slept %v, want the replayed %v", again, first)
	}
	if other := schedule(MethodCancel); slices.Equal(first, other) {
		t.Errorf("another method slept the same schedule %v: the seed ignores the request", other)
	}

	const n = 200
	retried := func() {
		for i := 0; i < n; i++ {
			if _, err := ctl.requestRetry(ctx, worker.Addr(), MethodPing, nil, nil, true, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	bare := func() {
		for i := 0; i < n; i++ {
			if _, err := ctl.host.RequestCtx(ctx, worker.Addr(), MethodPing, nil, nil, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	slept = nil
	retried() // warm: the connection is dialled
	bare()
	over := (int64(allocatedBy(retried)) - int64(allocatedBy(bare))) / n
	t.Logf("requestRetry allocates %d B per first-attempt success over the bare RPC", over)
	if over >= 4864 {
		t.Errorf("a first-attempt success allocates %d B over the bare RPC, want < 4,864 (one rngSource)", over)
	}
	if len(slept) != 0 {
		t.Errorf("a first-attempt success slept %v", slept)
	}
}
