package service

// Multi-tenant contention suite (run under -race by the race suite):
// several tenants farm concurrently through one controller over a
// mixed healthy/byzantine simnet fleet, and the fair-share scheduler's
// per-tenant ledgers must reconcile exactly — no cross-tenant budget
// leakage while the farms race, no phantom sheds, registry counters
// equal to the scheduler's own books — while every farm still commits
// the fault-free output stream.

import (
	"context"
	"sync"
	"testing"
	"time"

	"consumergrid/internal/metrics"
	"consumergrid/internal/simnet"
	"consumergrid/internal/taskgraph"
	"consumergrid/internal/trace"
	"consumergrid/internal/types"
)

// tenantNet builds a controller (with the given tenant weights and
// despatch budget) plus four workers on one simulated network.
func tenantNet(t *testing.T, n *simnet.Network, prefix string, budget int, weights map[string]int) (ctl *Service, peers []PeerRef) {
	t.Helper()
	ctl = newService(t, n.Peer(prefix+"ctl"), prefix+"ctl", Options{
		Resilience:            chaosResilience(),
		MaxInflightDespatches: budget,
		Tenants:               weights,
	})
	for _, label := range []string{"w1", "w2", "w3", "w4"} {
		w := newService(t, n.Peer(prefix+label), prefix+label, Options{})
		peers = append(peers, PeerRef{ID: prefix + label, Addr: w.Addr()})
	}
	return ctl, peers
}

// tenantCounter reads a {peer, tenant}-labelled counter off the default
// registry.
func tenantCounter(family, peer, tenant string) int64 {
	return metrics.Default().Counter(metrics.Series(family, "peer", peer, "tenant", tenant)).Value()
}

func TestTenantContentionSuite(t *testing.T) {
	const (
		nTenants = 3
		farmsPer = 2
		nChunks  = 2
		perChunk = 3
		budget   = 2
	)
	farmSeed := func(f int) int64 { return int64(4000 + f) }

	// Reference outputs per farm, computed sequentially on a clean net.
	want := make(map[int][]types.Data)
	{
		n := simnet.New()
		ctl, peers := tenantNet(t, n, "bl-", 0, nil)
		for f := 0; f < nTenants*farmsPer; f++ {
			rep := runChaosFarm(t, ctl, peers, chaosChunks(farmSeed(f), nChunks, perChunk), FarmOptions{})
			want[f] = rep.Outputs
		}
	}

	// The contended net: a tight despatch budget shared by three tenants
	// of unequal weight, and one byzantine worker whose every pipe
	// payload is silently corrupted — a Quorum:3 farm must outvote it.
	n := simnet.New()
	ctl, peers := tenantNet(t, n, "mt-", budget, map[string]int{"t0": 1, "t1": 2, "t2": 1})
	// mt-w1 ranks first, so it is certain to be balloted — and certain
	// to lie: every pipe payload crossing its links is corrupted.
	n.SetLinkFaults("mt-w1", simnet.LinkFaults{CorruptEvery: 1})

	// The registry is process-wide and outlives the test, so the series
	// are read as deltas — the suite must hold under -count=N.
	base := map[string]int64{}
	for _, family := range []string{"service_tenant_admits_total", "service_tenant_shed_total",
		"service_tenant_farms_total", "service_tenant_chunks_committed_total"} {
		for _, tenant := range []string{"t0", "t1", "t2"} {
			base[family+tenant] = tenantCounter(family, "mt-ctl", tenant)
		}
	}
	delta := func(family, tenant string) int64 {
		return tenantCounter(family, "mt-ctl", tenant) - base[family+tenant]
	}

	// A sampler races the farms, asserting the no-leakage invariant the
	// whole time: per-tenant inflights sum to the scheduler total and
	// never exceed the budget.
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		for {
			select {
			case <-stopSampler:
				return
			case <-time.After(2 * time.Millisecond):
			}
			tenants, total, limit := ctl.Tenants()
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

	var wg sync.WaitGroup
	for ti := 0; ti < nTenants; ti++ {
		for fi := 0; fi < farmsPer; fi++ {
			wg.Add(1)
			go func(ti, fi int) {
				defer wg.Done()
				f := ti*farmsPer + fi
				tenant := []string{"t0", "t1", "t2"}[ti]
				rep, err := ctl.FarmChunks(context.Background(),
					chaosChunks(farmSeed(f), nChunks, perChunk), FarmOptions{
						Body:           func() *taskgraph.Graph { return accumBody(t) },
						Peers:          peers,
						Quorum:         3,
						ChunkAttempts:  24,
						AttemptTimeout: 10 * time.Second,
						Tenant:         tenant,
					})
				if err != nil {
					t.Errorf("tenant %s farm %d: %v", tenant, fi, err)
					return
				}
				assertSameOutputs(t, rep.Outputs, want[f])
			}(ti, fi)
		}
	}
	wg.Wait()
	close(stopSampler)
	<-samplerDone
	if t.Failed() {
		t.FailNow()
	}
	if n.Corrupted() == 0 {
		t.Fatal("byzantine fault injection never fired; the test exercised nothing")
	}

	// Reconciliation: every tenant's ledger is settled and exact.
	tenants, inflight, _ := ctl.Tenants()
	if inflight != 0 {
		t.Fatalf("scheduler still shows %d in flight after all farms returned", inflight)
	}
	byName := map[string]TenantSnapshot{}
	for _, ts := range tenants {
		byName[ts.Tenant] = ts
	}
	for _, tenant := range []string{"t0", "t1", "t2"} {
		ts, ok := byName[tenant]
		if !ok {
			t.Fatalf("tenant %s missing from the snapshot", tenant)
		}
		if ts.Inflight != 0 || ts.Queued != 0 {
			t.Errorf("tenant %s not settled: %d inflight, %d queued", tenant, ts.Inflight, ts.Queued)
		}
		// Blocking mode: contention queues, it never sheds.
		if ts.Sheds != 0 {
			t.Errorf("tenant %s counted %d sheds in blocking mode", tenant, ts.Sheds)
		}
		// Every chunk needs at least Quorum despatch slots; retries and
		// replacements only add to that.
		if min := int64(farmsPer * nChunks * 3); ts.Admits < min {
			t.Errorf("tenant %s admits = %d, want >= %d", tenant, ts.Admits, min)
		}
		// The registry series and the scheduler's own books are written
		// at the same decision point, so they must agree exactly.
		if c := delta("service_tenant_admits_total", tenant); c != ts.Admits {
			t.Errorf("tenant %s registry admits %d != ledger %d", tenant, c, ts.Admits)
		}
		if c := delta("service_tenant_shed_total", tenant); c != ts.Sheds {
			t.Errorf("tenant %s registry sheds %d != ledger %d", tenant, c, ts.Sheds)
		}
		// Farm-side per-tenant series: every farm and every committed
		// chunk is attributed to its tenant.
		if c := delta("service_tenant_farms_total", tenant); c != farmsPer {
			t.Errorf("tenant %s farms counter = %d, want %d", tenant, c, farmsPer)
		}
		if c := delta("service_tenant_chunks_committed_total", tenant); c != farmsPer*nChunks {
			t.Errorf("tenant %s chunk counter = %d, want %d", tenant, c, farmsPer*nChunks)
		}
	}
}

// TestTenantHeaderPropagation: the tenant identity set on FarmOptions
// rides the despatch envelope to the worker, whose execute span is
// attributed to it — the end-to-end plumbing a grid operator's
// per-tenant trace queries depend on.
func TestTenantHeaderPropagation(t *testing.T) {
	n := simnet.New()
	ctl := newService(t, n.Peer("hp-ctl"), "hp-ctl", Options{Resilience: chaosResilience()})
	w := newService(t, n.Peer("hp-w1"), "hp-w1", Options{})
	peers := []PeerRef{{ID: "hp-w1", Addr: w.Addr()}}

	rep := runChaosFarm(t, ctl, peers, chaosChunks(77, 2, 3), FarmOptions{Tenant: "hdr-alice"})
	if len(rep.Outputs) == 0 {
		t.Fatal("farm committed nothing")
	}

	var workerSpans, attributed int
	for _, sp := range trace.Default().Spans() {
		if sp.Name != "execute" || sp.Peer != "hp-w1" {
			continue
		}
		workerSpans++
		if sp.Attrs["tenant"] == "hdr-alice" {
			attributed++
		}
	}
	if workerSpans == 0 {
		t.Fatal("no execute spans recorded on the worker")
	}
	if attributed != workerSpans {
		t.Fatalf("%d of %d worker execute spans carry the tenant; the envelope header was lost", attributed, workerSpans)
	}

	// The controller-side despatch spans are attributed too.
	var despatched int
	for _, sp := range trace.Default().Spans() {
		if sp.Name == "despatch" && sp.Peer == "hp-ctl" && sp.Attrs["tenant"] == "hdr-alice" {
			despatched++
		}
	}
	if despatched == 0 {
		t.Fatal("no despatch span on the controller carries the tenant")
	}
}
