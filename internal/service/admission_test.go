package service

// Fair-share admission scheduler tests: FIFO grant order within a
// tenant, single-sourced acquire outcomes with an exact admits ledger,
// the weighted-stride share split and the no-barging rules.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// awaitQueued polls the scheduler until tenant shows want queued waiters.
func awaitQueued(t *testing.T, a *admission, tenant string, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		tenants, _, _ := a.snapshot()
		for _, ts := range tenants {
			if ts.Tenant == tenant && ts.Queued == want {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("tenant %s never reached %d queued waiters", tenant, want)
}

// TestAdmissionFIFOWithinTenant is the satellite-1 regression: two
// competing farms of one tenant interleave their acquires; grants must
// come back in strict arrival order, which bounds the per-farm grant
// skew to one at every prefix. The PR 4 semaphore woke a random waiter
// per release, so one farm could win many slots in a row while the
// other starved.
func TestAdmissionFIFOWithinTenant(t *testing.T) {
	a := newAdmission(1, "adm-fifo", nil)
	defer a.close()

	// Hold the only slot so every subsequent acquire queues.
	if err := a.acquire(context.Background(), nil, "ten"); err != nil {
		t.Fatalf("seed acquire: %v", err)
	}

	// Farms A and B alternate arrivals: even tickets are A's, odd are
	// B's. Enqueue strictly one at a time so arrival order is pinned.
	const n = 10
	grants := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := a.acquire(context.Background(), nil, "ten"); err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			grants <- i
			a.release("ten")
		}(i)
		awaitQueued(t, a, "ten", i+1)
	}

	a.release("ten") // open the floodgate: grants must cascade in order
	wg.Wait()
	close(grants)

	var order []int
	farmA, farmB := 0, 0
	for i := range grants {
		order = append(order, i)
		if i%2 == 0 {
			farmA++
		} else {
			farmB++
		}
		if skew := farmA - farmB; skew < 0 || skew > 1 {
			t.Fatalf("farm grant skew %d after order %v; FIFO bound is [0,1]", skew, order)
		}
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("grant order %v, want strict arrival order", order)
		}
	}
}

// TestAdmissionWeightedShares: under saturation, a weight-2 tenant
// drains exactly twice as fast as a weight-1 tenant. The stride
// schedule is deterministic (ties break by name), so the first 15
// grants split exactly 10/5.
func TestAdmissionWeightedShares(t *testing.T) {
	a := newAdmission(1, "adm-weighted", map[string]int{"alice": 2, "bob": 1})
	defer a.close()

	if err := a.acquire(context.Background(), nil, "seed"); err != nil {
		t.Fatalf("seed acquire: %v", err)
	}

	grants := make(chan string, 30)
	var wg sync.WaitGroup
	spawn := func(tenant string, count int) {
		for i := 0; i < count; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := a.acquire(context.Background(), nil, tenant); err != nil {
					t.Errorf("%s acquire: %v", tenant, err)
					return
				}
				grants <- tenant
				a.release(tenant)
			}()
		}
	}
	spawn("alice", 20)
	spawn("bob", 10)
	awaitQueued(t, a, "alice", 20)
	awaitQueued(t, a, "bob", 10)

	a.release("seed")
	wg.Wait()
	close(grants)

	aliceFirst15, seen := 0, 0
	for tenant := range grants {
		seen++
		if seen <= 15 && tenant == "alice" {
			aliceFirst15++
		}
	}
	if seen != 30 {
		t.Fatalf("granted %d acquires, want 30", seen)
	}
	if aliceFirst15 != 10 {
		t.Fatalf("alice won %d of the first 15 grants, want exactly 10 (2:1 stride)", aliceFirst15)
	}
}

// TestAdmissionNoBarging: while waiters are queued, neither tryAcquire
// (speculative launches) nor a fresh blocking acquire may jump the
// line, even when a slot is momentarily free.
func TestAdmissionNoBarging(t *testing.T) {
	a := newAdmission(2, "adm-barge", nil)
	defer a.close()

	if err := a.acquire(context.Background(), nil, "t"); err != nil {
		t.Fatal(err)
	}
	if err := a.acquire(context.Background(), nil, "t"); err != nil {
		t.Fatal(err)
	}
	// Budget full: queue one waiter.
	granted := make(chan struct{})
	go func() {
		if err := a.acquire(context.Background(), nil, "t"); err != nil {
			t.Errorf("queued waiter: %v", err)
		}
		close(granted)
	}()
	awaitQueued(t, a, "t", 1)

	if a.tryAcquire("t") {
		t.Fatal("tryAcquire succeeded with the budget full")
	}
	a.release("t")
	<-granted // the queued waiter, not a late arrival, gets the slot
	if a.tryAcquire("t") {
		t.Fatal("tryAcquire barged: slot was handed past the FIFO queue")
	}
	a.release("t")
	a.release("t")
	if !a.tryAcquire("t") {
		t.Fatal("tryAcquire refused an idle scheduler")
	}
	a.release("t")
}

// TestAdmissionContextCancelReleasesNothing: an abandoned waiter holds
// no slot and no queue position afterwards, and the scheduler keeps
// granting normally.
func TestAdmissionContextCancelReleasesNothing(t *testing.T) {
	a := newAdmission(1, "adm-cancel", nil)
	defer a.close()

	if err := a.acquire(context.Background(), nil, "t"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- a.acquire(ctx, nil, "t") }()
	awaitQueued(t, a, "t", 1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire returned %v, want context.Canceled", err)
	}
	tenants, inflight, _ := a.snapshot()
	if inflight != 1 {
		t.Fatalf("inflight = %d after cancel, want 1 (only the held slot)", inflight)
	}
	for _, ts := range tenants {
		if ts.Queued != 0 {
			t.Fatalf("tenant %s still shows %d queued after cancel", ts.Tenant, ts.Queued)
		}
	}
	a.release("t")
	if err := a.acquire(context.Background(), nil, "t"); err != nil {
		t.Fatalf("acquire after cancel: %v", err)
	}
	a.release("t")
}

// TestAdmissionOutcomeExactness, run under -race by the race suite:
// many goroutines across several tenants hammer the blocking scheduler,
// some with contexts that expire while they queue, while close() lands
// mid-run. Every acquire must end exactly once — granted, cancelled or
// closed — each tenant's admits ledger must equal the grants its
// callers took, and in-flight must return to 0.
func TestAdmissionOutcomeExactness(t *testing.T) {
	const (
		tenantsN   = 4
		goroutines = 8
		iters      = 200
	)
	a := newAdmission(3, "adm-exact", nil)

	var grantsBy [tenantsN]atomic.Int64
	var cancelledN, closedN atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			ten := g % tenantsN
			name := fmt.Sprintf("t%d", ten)
			for i := 0; i < iters; i++ {
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if i%3 == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(1+i%50)*time.Microsecond)
				}
				err := a.acquire(ctx, nil, name)
				cancel()
				switch {
				case err == nil:
					grantsBy[ten].Add(1)
					time.Sleep(10 * time.Microsecond)
					a.release(name)
				case errors.Is(err, context.DeadlineExceeded):
					cancelledN.Add(1)
				case errors.Is(err, errAdmissionClosed):
					closedN.Add(1)
				default:
					t.Errorf("unclassified acquire outcome: %v", err)
					return
				}
			}
		}(g)
	}
	// A sampler races the workers, asserting the cross-tenant budget
	// invariant the whole time: per-tenant inflights sum to the total
	// and never exceed the limit.
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		for i := 0; i < 500; i++ {
			tenants, total, limit := a.snapshot()
			sum := 0
			for _, ts := range tenants {
				sum += ts.Inflight
			}
			if sum != total || total > limit {
				t.Errorf("budget leak: tenant inflights sum %d, total %d, limit %d", sum, total, limit)
				return
			}
		}
	}()
	close(start)
	time.Sleep(5 * time.Millisecond)
	a.close() // land mid-run: racing acquires must resolve to exactly one outcome
	wg.Wait()
	<-samplerDone

	tenants, inflight, _ := a.snapshot()
	if inflight != 0 {
		t.Fatalf("inflight = %d after all releases, want 0", inflight)
	}
	var grants int64
	for _, ts := range tenants {
		if ts.Queued != 0 {
			t.Errorf("tenant %s still shows %d queued", ts.Tenant, ts.Queued)
		}
		if ts.Tenant == DefaultTenant {
			continue
		}
		var ten int
		if _, err := fmt.Sscanf(ts.Tenant, "t%d", &ten); err != nil {
			t.Fatalf("unexpected tenant %q in snapshot", ts.Tenant)
		}
		if ts.Admits != grantsBy[ten].Load() {
			t.Errorf("tenant %s ledger admits %d, callers took %d grants", ts.Tenant, ts.Admits, grantsBy[ten].Load())
		}
		grants += grantsBy[ten].Load()
	}
	if closedN.Load() == 0 {
		t.Error("close() landed after every acquire; the race it checks never ran")
	}
	outcomes := grants + cancelledN.Load() + closedN.Load()
	if want := int64(goroutines * iters); outcomes != want {
		t.Fatalf("outcomes %d (granted %d, cancelled %d, closed %d) != acquires %d",
			outcomes, grants, cancelledN.Load(), closedN.Load(), want)
	}
}

// TestAdmissionCloseWakesWaiters: close fails every queued waiter with
// the shutdown outcome, books no admit for them, and slots already
// granted still release cleanly afterwards.
func TestAdmissionCloseWakesWaiters(t *testing.T) {
	a := newAdmission(1, "adm-close", nil)
	if err := a.acquire(context.Background(), nil, "t"); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() { errs <- a.acquire(context.Background(), nil, "t") }()
	}
	awaitQueued(t, a, "t", 3)
	a.close()
	for i := 0; i < 3; i++ {
		if err := <-errs; !errors.Is(err, errAdmissionClosed) {
			t.Fatalf("waiter woke with %v, want the closed outcome", err)
		}
	}
	tenants, _, _ := a.snapshot()
	for _, ts := range tenants {
		if ts.Tenant == "t" && ts.Admits != 1 {
			t.Fatalf("tenant t ledger booked %d admits, want 1 (only the held slot)", ts.Admits)
		}
	}
	a.release("t") // the granted slot's release still balances the books
	if _, inflight, _ := a.snapshot(); inflight != 0 {
		t.Fatalf("inflight %d after final release, want 0", inflight)
	}
}
