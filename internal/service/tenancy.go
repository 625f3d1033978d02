// Tenant-facing surface of the fair-share despatch plane. The
// scheduler itself lives in admission.go; this file holds the
// farm-side per-tenant series (committed chunks, egress bytes, farms
// started) and the snapshot API that webstatus, the triana.tenants RPC
// and trianactl tenant all render from.
package service

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"consumergrid/internal/metrics"
)

// tenantFarmStats caches one tenant's farm-side series so the per-datum
// egress hot path pays a pointer deref, not a registry lookup.
type tenantFarmStats struct {
	farms  *metrics.Counter
	chunks *metrics.Counter
	egress *metrics.Counter
}

// tenantFarm returns the tenant's farm series, creating the
// {peer, tenant}-labelled counters on first sight.
func (s *Service) tenantFarm(tenant string) *tenantFarmStats {
	if tenant == "" {
		tenant = DefaultTenant
	}
	s.tenantFarmMu.Lock()
	defer s.tenantFarmMu.Unlock()
	if tf, ok := s.tenantFarms[tenant]; ok {
		return tf
	}
	reg := metrics.Default()
	tf := &tenantFarmStats{
		farms:  reg.Counter(metrics.Series("service_tenant_farms_total", "peer", s.opts.PeerID, "tenant", tenant)),
		chunks: reg.Counter(metrics.Series("service_tenant_chunks_committed_total", "peer", s.opts.PeerID, "tenant", tenant)),
		egress: reg.Counter(metrics.Series("service_tenant_farm_egress_bytes_total", "peer", s.opts.PeerID, "tenant", tenant)),
	}
	s.tenantFarms[tenant] = tf
	return tf
}

// Tenants reports every tenant's admission ledger (sorted by name)
// plus the scheduler totals: slots in flight across all tenants and
// the configured budget.
func (s *Service) Tenants() (tenants []TenantSnapshot, inflight, limit int) {
	return s.admit.snapshot()
}

// SetTenantWeight adjusts a tenant's fair-share weight at runtime.
// Weights <= 0 are ignored.
func (s *Service) SetTenantWeight(tenant string, weight int) {
	s.admit.setWeight(tenant, weight)
}

// SchedTenantResult is one tenant's outcome from SchedulerTrial.
type SchedTenantResult struct {
	Tenant string
	Weight int
	// Completed despatches and the wall time from the common start to
	// the tenant's last completion; PerSec is their ratio.
	Completed int
	Elapsed   time.Duration
	PerSec    float64
	// P99WaitMS is the tenant's 99th-percentile scheduling wait
	// (acquire to grant), read from the admission histogram.
	P99WaitMS float64
}

// SchedulerTrial is the T7 despatch-plane kernel, shared by the
// experiment harness and the fairness benchmark: a closed-loop
// simulation of the fair-share admission scheduler in which `budget`
// donor slots serve streamsPerTenant concurrent farm streams per
// tenant, each despatch holding its slot for svcTime (plus up to 50%
// seeded jitter). It measures what the full network stack would only
// blur — per-tenant throughput under slot contention and the p99
// scheduling wait. owner labels the per-tenant registry series and must
// be unique per trial so repeated configs do not blend histograms.
func SchedulerTrial(owner string, tenants map[string]int, budget, streamsPerTenant,
	despatchesPerStream int, svcTime time.Duration, seed int64) []SchedTenantResult {

	adm := newAdmission(budget, owner, tenants)
	defer adm.close()

	names := make([]string, 0, len(tenants))
	for name := range tenants {
		names = append(names, name)
	}
	sort.Strings(names)

	type tenantClock struct {
		mu   sync.Mutex
		last time.Time
	}
	clocks := make(map[string]*tenantClock, len(names))
	for _, name := range names {
		clocks[name] = &tenantClock{}
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	for ti, name := range names {
		for s := 0; s < streamsPerTenant; s++ {
			wg.Add(1)
			go func(name string, streamSeed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(streamSeed))
				<-start
				for k := 0; k < despatchesPerStream; k++ {
					if err := adm.acquire(context.Background(), nil, name); err != nil {
						return
					}
					time.Sleep(svcTime + time.Duration(rng.Int63n(int64(svcTime)/2+1)))
					adm.release(name)
				}
				c := clocks[name]
				c.mu.Lock()
				if now := time.Now(); now.After(c.last) {
					c.last = now
				}
				c.mu.Unlock()
			}(name, seed+int64(ti*streamsPerTenant+s))
		}
	}
	began := time.Now()
	close(start)
	wg.Wait()

	snap, _, _ := adm.snapshot()
	p99 := make(map[string]float64, len(snap))
	for _, ts := range snap {
		p99[ts.Tenant] = ts.P99WaitMS
	}
	var out []SchedTenantResult
	for _, name := range names {
		elapsed := clocks[name].last.Sub(began)
		completed := streamsPerTenant * despatchesPerStream
		out = append(out, SchedTenantResult{
			Tenant:    name,
			Weight:    tenants[name],
			Completed: completed,
			Elapsed:   elapsed,
			PerSec:    float64(completed) / elapsed.Seconds(),
			P99WaitMS: p99[name],
		})
	}
	return out
}

// TenantsText renders the tenant ledger as the aligned text table the
// triana.tenants RPC returns.
func (s *Service) TenantsText() string {
	tenants, inflight, limit := s.Tenants()
	var b strings.Builder
	fmt.Fprintf(&b, "despatch budget %d, %d in flight\n", limit, inflight)
	fmt.Fprintf(&b, "%-16s %6s %8s %6s %8s %12s\n",
		"TENANT", "WEIGHT", "INFLIGHT", "QUEUED", "ADMITS", "P99WAIT(MS)")
	for _, t := range tenants {
		fmt.Fprintf(&b, "%-16s %6d %8d %6d %8d %12.2f\n",
			t.Tenant, t.Weight, t.Inflight, t.Queued, t.Admits, t.P99WaitMS)
	}
	return b.String()
}
