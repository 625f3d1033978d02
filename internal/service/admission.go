// Controller-side admission control: a bounded in-flight despatch
// budget so a million-chunk farm cannot exhaust memory or stampede a
// half-dead swarm with unbounded concurrent attempts. Each despatch
// attempt claims a slot before it touches the network and releases it
// when the attempt resolves.
//
// PR 4 implemented the budget as a bare channel semaphore: one global
// limit, waiters woken in whatever order the runtime's select picked,
// so a heavy farm could starve a light one indefinitely. This version
// is a weighted fair-share scheduler in the spirit of the market-driven
// schedulers surveyed by Yu & Buyya: every acquire names a tenant, each
// tenant owns a FIFO ticket queue, and freed slots are handed to the
// backlogged tenant with the lowest virtual pass (weighted stride —
// stride inversely proportional to the tenant's weight), so a tenant
// with weight 2 drains twice as fast as a tenant with weight 1 and
// no tenant is starved. Within a tenant, tickets are granted strictly
// in arrival order, which bounds wait-time skew between two competing
// farms of the same tenant.
//
// Backpressure is either blocking (the default — the farm paces itself
// to the budget) or shedding: with ShedDespatchOverload set, a full
// budget fails the acquire with a per-tenant *OverloadError at once.
//
// Every acquire has exactly one outcome — granted, shed, cancelled, or
// closed — decided under the scheduler mutex. The PR 4 semaphore
// decided "shed" with a lock-free select and bumped the shed counter
// outside it, so an acquire racing Close could count a shed AND return
// success; here the counters are bumped at the same decision point
// that picks the outcome, so they are exact under contention.
package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"consumergrid/internal/metrics"
)

// DefaultTenant is the tenant identity assumed when a submission does
// not carry one — single-scientist deployments from the paper never
// need to name tenants and keep working unchanged.
const DefaultTenant = "default"

// OverloadError is the typed shed verdict: the despatch was refused
// because the tenant's fair share of the in-flight budget was
// exhausted, not because anything is wrong with the work or the peer.
// Callers can retry later or fall back to blocking.
type OverloadError struct {
	// Tenant is the tenant whose acquire was shed.
	Tenant string
	// Limit is the configured in-flight despatch budget.
	Limit int
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("service: despatch budget exhausted for tenant %q (%d in flight)", e.Tenant, e.Limit)
}

// errAdmissionClosed is the single "service shutting down" outcome; it
// is distinct from a shed and never bumps shed counters.
var errAdmissionClosed = errors.New("service: shutting down")

// ErrDraining is the typed refusal a draining controller gives new
// farms: the daemon is finishing its in-flight work before exiting and
// admits nothing new. Distinct from an *OverloadError (retry soon) —
// a draining daemon is going away, so callers should resubmit to
// another controller. Detect it with errors.Is.
var ErrDraining = errors.New("service: draining, not admitting new farms")

// defaultMaxInflightDespatches bounds concurrent despatch attempts when
// Options.MaxInflightDespatches is unset. High enough that tests and
// small farms never notice, low enough that a runaway fan-out cannot
// hold every chunk's pipes and buffers at once.
const defaultMaxInflightDespatches = 64

// strideScale is the numerator of the stride computation. Large enough
// that integer division by any sane weight keeps plenty of resolution.
const strideScale = 1 << 20

// ticket is one queued blocking acquire. Its outcome fields are written
// only under admission.mu; ready is closed exactly once, by whichever
// path (grant or close) decides the outcome.
type ticket struct {
	q         *tenantQueue
	ready     chan struct{}
	enqueued  time.Time
	granted   bool
	closed    bool
	cancelled bool // waiter gave up (ctx / shutdown); skip on dispatch
}

// tenantQueue is one tenant's admission state: its weight-derived
// stride, virtual pass, FIFO waiter queue, and exact outcome counters.
type tenantQueue struct {
	name     string
	weight   int
	stride   uint64
	pass     uint64
	inflight int
	waiters  []*ticket
	admits   int64
	sheds    int64

	// Registry-backed series, labelled {peer, tenant}. Created when the
	// queue is, so configured tenants appear on /metrics immediately.
	admitsC   *metrics.Counter
	shedsC    *metrics.Counter
	inflightG *metrics.Gauge
	waitH     *metrics.Histogram
}

// admission is the fair-share despatch scheduler. A nil admission
// admits everything (tests and embedded uses that opt out).
type admission struct {
	mu        sync.Mutex
	limit     int
	shed      bool
	closed    bool
	draining  bool // beginFarm refuses; slot acquires keep working
	farms     int  // farms between beginFarm and endFarm
	inflight  int  // total slots in use, across tenants
	waiting   int  // total live queued waiters, across tenants
	vtime     uint64
	owner     string // peer ID, labels the per-tenant series
	defWeight int
	tenants   map[string]*tenantQueue
	onShed    func(tenant string) // bumps process-level shed counters; may be nil
}

// newAdmission builds the scheduler. weights seeds the configured
// tenants (plus the default tenant) so their metric series register
// eagerly; unknown tenants are admitted on first use at defWeight.
func newAdmission(limit int, shed bool, owner string, weights map[string]int, defWeight int, onShed func(tenant string)) *admission {
	if limit <= 0 {
		limit = defaultMaxInflightDespatches
	}
	if defWeight <= 0 {
		defWeight = 1
	}
	a := &admission{
		limit:     limit,
		shed:      shed,
		owner:     owner,
		defWeight: defWeight,
		tenants:   make(map[string]*tenantQueue),
		onShed:    onShed,
	}
	a.queueLocked(DefaultTenant)
	for name, w := range weights {
		q := a.queueLocked(name)
		if w > 0 {
			q.weight = w
			q.stride = strideFor(w)
		}
	}
	return a
}

// strideFor converts a weight into a stride, never returning 0 (a zero
// stride would let an absurd weight freeze virtual time and monopolise
// the budget).
func strideFor(weight int) uint64 {
	s := strideScale / uint64(weight)
	if s == 0 {
		s = 1
	}
	return s
}

// queueLocked returns the tenant's queue, creating it at the default
// weight on first sight. Callers hold a.mu (or own a exclusively, as
// newAdmission does).
func (a *admission) queueLocked(tenant string) *tenantQueue {
	if tenant == "" {
		tenant = DefaultTenant
	}
	if q, ok := a.tenants[tenant]; ok {
		return q
	}
	reg := metrics.Default()
	q := &tenantQueue{
		name:      tenant,
		weight:    a.defWeight,
		stride:    strideFor(a.defWeight),
		pass:      a.vtime,
		admitsC:   reg.Counter(metrics.Series("service_tenant_admits_total", "peer", a.owner, "tenant", tenant)),
		shedsC:    reg.Counter(metrics.Series("service_tenant_shed_total", "peer", a.owner, "tenant", tenant)),
		inflightG: reg.Gauge(metrics.Series("service_tenant_inflight", "peer", a.owner, "tenant", tenant)),
		waitH:     reg.Histogram(metrics.Series("service_tenant_sched_wait_seconds", "peer", a.owner, "tenant", tenant)),
	}
	a.tenants[tenant] = q
	return q
}

// setWeight adjusts a tenant's weight at runtime (trianactl tenant
// -weight). Weights <= 0 are ignored.
func (a *admission) setWeight(tenant string, w int) {
	if a == nil || w <= 0 {
		return
	}
	a.mu.Lock()
	q := a.queueLocked(tenant)
	q.weight = w
	q.stride = strideFor(w)
	a.mu.Unlock()
}

// grantLocked charges one slot to q. The tenant's pass advances by its
// stride, and the scheduler's virtual time follows the pass of the
// queue just served, so a tenant going idle cannot bank credit: on its
// next activity its pass is lifted to at least vtime.
func (a *admission) grantLocked(q *tenantQueue) {
	a.inflight++
	q.inflight++
	q.admits++
	if q.pass < a.vtime {
		q.pass = a.vtime
	}
	a.vtime = q.pass
	q.pass += q.stride
	q.admitsC.Inc()
	q.inflightG.Add(1)
	despatchInflight.Add(1)
}

// nextQueueLocked picks the backlogged tenant with the lowest pass —
// the weighted-stride scheduling decision. Ties break by name so the
// order is deterministic under test.
func (a *admission) nextQueueLocked() *tenantQueue {
	var best *tenantQueue
	for _, q := range a.tenants {
		live := false
		for _, t := range q.waiters {
			if !t.cancelled {
				live = true
				break
			}
		}
		if !live {
			continue
		}
		if best == nil || q.pass < best.pass || (q.pass == best.pass && q.name < best.name) {
			best = q
		}
	}
	return best
}

// dispatchLocked hands freed slots to waiting tickets until the budget
// is full or no live waiter remains. Each granted ticket's outcome is
// fixed here, under the mutex, before its channel is closed.
func (a *admission) dispatchLocked() {
	for a.inflight < a.limit && a.waiting > 0 {
		q := a.nextQueueLocked()
		if q == nil {
			return
		}
		var t *ticket
		for len(q.waiters) > 0 {
			cand := q.waiters[0]
			q.waiters = q.waiters[1:]
			if cand.cancelled {
				continue
			}
			t = cand
			break
		}
		if t == nil {
			continue
		}
		t.granted = true
		a.waiting--
		a.grantLocked(q)
		q.waitH.Observe(time.Since(t.enqueued).Seconds())
		close(t.ready)
	}
}

// acquire claims a slot for tenant. In blocking mode it waits — FIFO
// within the tenant, weighted fair-share across tenants — until a slot
// is granted, the context ends, or the service shuts down; in shed
// mode a full budget returns a per-tenant *OverloadError at once.
func (a *admission) acquire(ctx context.Context, shutdown <-chan struct{}, tenant string) error {
	if a == nil {
		return nil
	}
	// A dead context is never granted a slot, free or not: the despatch
	// it would admit sends its request before noticing the cancel, and
	// the job the donor accepted is then orphaned — nobody holds its ID
	// to cancel it.
	if err := ctx.Err(); err != nil {
		return err
	}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return errAdmissionClosed
	}
	q := a.queueLocked(tenant)
	// Fast path: free slot and nobody queued ahead. The waiting check
	// stops late arrivals barging past tickets already in line.
	if a.inflight < a.limit && a.waiting == 0 {
		a.grantLocked(q)
		q.waitH.Observe(0)
		a.mu.Unlock()
		return nil
	}
	if a.shed {
		q.sheds++
		q.shedsC.Inc()
		onShed := a.onShed
		a.mu.Unlock()
		if onShed != nil {
			onShed(q.name)
		}
		return &OverloadError{Tenant: q.name, Limit: a.limit}
	}
	t := &ticket{q: q, ready: make(chan struct{}), enqueued: time.Now()}
	q.waiters = append(q.waiters, t)
	a.waiting++
	a.mu.Unlock()

	select {
	case <-t.ready:
		a.mu.Lock()
		closed := t.closed
		a.mu.Unlock()
		if closed {
			return errAdmissionClosed
		}
		return nil
	case <-ctx.Done():
		a.abandon(t)
		return ctx.Err()
	case <-shutdown:
		a.abandon(t)
		return errAdmissionClosed
	}
}

// abandon resolves a waiter that gave up. If the grant already landed,
// the slot is returned (the caller is reporting an error and will not
// despatch); otherwise the ticket is marked cancelled and dispatch
// skips it. Either way the caller holds no slot afterwards.
func (a *admission) abandon(t *ticket) {
	a.mu.Lock()
	switch {
	case t.granted:
		a.releaseLocked(t.q)
	case t.closed:
		// close() already resolved it; nothing to undo.
	default:
		t.cancelled = true
		a.waiting--
	}
	a.mu.Unlock()
}

// tryAcquire claims a slot only if one is free and no blocking waiter
// is queued — used by speculative launches, which are an optimisation
// and should never queue behind the budget, fail the chunk when
// refused, or barge past farms already waiting in line.
func (a *admission) tryAcquire(tenant string) bool {
	if a == nil {
		return true
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed || a.inflight >= a.limit || a.waiting > 0 {
		return false
	}
	q := a.queueLocked(tenant)
	a.grantLocked(q)
	q.waitH.Observe(0)
	return true
}

// release returns the tenant's slot and hands it to the next waiter
// per the stride schedule.
func (a *admission) release(tenant string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.releaseLocked(a.queueLocked(tenant))
	a.mu.Unlock()
}

func (a *admission) releaseLocked(q *tenantQueue) {
	a.inflight--
	q.inflight--
	q.inflightG.Add(-1)
	despatchInflight.Add(-1)
	a.dispatchLocked()
}

// close fails every queued waiter with the closed outcome and refuses
// all future acquires. Slots already granted stay valid; their releases
// still balance the books.
func (a *admission) close() {
	if a == nil {
		return
	}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	var failed []*ticket
	for _, q := range a.tenants {
		for _, t := range q.waiters {
			if t.cancelled || t.granted {
				continue
			}
			t.closed = true
			a.waiting--
			failed = append(failed, t)
		}
		q.waiters = nil
	}
	a.mu.Unlock()
	for _, t := range failed {
		close(t.ready)
	}
}

// beginFarm registers a farm with the scheduler. While the scheduler
// is draining (or closed) new farms are refused with ErrDraining /
// errAdmissionClosed; farms already registered keep acquiring slots
// for their remaining chunks, which is what lets a drain finish
// in-flight work instead of failing it. Pair every successful
// beginFarm with endFarm.
func (a *admission) beginFarm(tenant string) error {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return errAdmissionClosed
	}
	if a.draining {
		return ErrDraining
	}
	a.farms++
	return nil
}

// endFarm balances a successful beginFarm.
func (a *admission) endFarm() {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.farms--
	a.mu.Unlock()
}

// beginDrain flips the scheduler into drain mode: beginFarm starts
// refusing, everything else keeps working. Idempotent.
func (a *admission) beginDrain() {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.draining = true
	a.mu.Unlock()
}

// counts reports the live farms and in-flight slots, for drain
// progress gauges.
func (a *admission) counts() (farms, inflight int) {
	if a == nil {
		return 0, 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.farms, a.inflight
}

// awaitIdle waits (polling) until no farm is registered and no slot is
// held, or the timeout passes, and reports whether idle was reached.
// progress, when non-nil, observes each poll — the drain path feeds
// the drain_inflight gauge from it.
func (a *admission) awaitIdle(timeout time.Duration, progress func(farms, inflight int)) bool {
	if a == nil {
		return true
	}
	deadline := time.Now().Add(timeout)
	for {
		farms, inflight := a.counts()
		if progress != nil {
			progress(farms, inflight)
		}
		if farms == 0 && inflight == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// awaitInflightDrained waits until every granted slot is released (or
// the timeout passes). Close uses it so overlay teardown cannot race
// in-flight despatch attempts against a vanishing ring; unlike
// awaitIdle it ignores registered farms, which can legitimately
// outlive Close (their next acquire fails with errAdmissionClosed).
func (a *admission) awaitInflightDrained(timeout time.Duration) bool {
	if a == nil {
		return true
	}
	deadline := time.Now().Add(timeout)
	for {
		_, inflight := a.counts()
		if inflight == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TenantSnapshot is one tenant's admission ledger, surfaced on
// webstatus, the triana.tenants RPC and trianactl tenant.
type TenantSnapshot struct {
	Tenant   string
	Weight   int
	Inflight int
	Queued   int
	Admits   int64
	Sheds    int64
	// P99WaitMS is the reservoir-sampled 99th-percentile scheduling
	// wait (acquire to grant) in milliseconds.
	P99WaitMS float64
}

// snapshot reports every tenant's ledger, sorted by name, plus the
// scheduler-wide totals. The invariant totalInflight == sum of tenant
// inflights is what the contention suite leans on to prove budget
// accounting never leaks across tenants.
func (a *admission) snapshot() (tenants []TenantSnapshot, totalInflight, limit int) {
	if a == nil {
		return nil, 0, 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, q := range a.tenants {
		queued := 0
		for _, t := range q.waiters {
			if !t.cancelled {
				queued++
			}
		}
		tenants = append(tenants, TenantSnapshot{
			Tenant:    q.name,
			Weight:    q.weight,
			Inflight:  q.inflight,
			Queued:    queued,
			Admits:    q.admits,
			Sheds:     q.sheds,
			P99WaitMS: q.waitH.Quantile(99) * 1e3,
		})
	}
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].Tenant < tenants[j].Tenant })
	return tenants, a.inflight, a.limit
}
