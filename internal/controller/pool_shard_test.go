package controller

// Sharded despatch-plane tests: donor placement by the consistent-hash
// ring, shard-local candidate sets with whole-pool fallback, retraction
// routing, and the tenant smoke scenario `make tenant-smoke` runs — a
// 2-shard, 3-tenant grid whose admission grants must come out fair.

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"consumergrid/internal/metrics"
	"consumergrid/internal/policy"
	"consumergrid/internal/taskgraph"
	"consumergrid/internal/types"
	"consumergrid/internal/units"
	"consumergrid/internal/units/signal"
)

// TestDonorPoolSharding: donors land on the shard the ring maps them
// to, every shard-keyed lookup resolves to live donors, and a
// retraction is routed back to the owning shard.
func TestDonorPoolSharding(t *testing.T) {
	net := newNet(t, 3, cpus(1000, 2000, 3000))
	pool, err := net.ctl.StartDonorPool(RunOptions{PoolShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for _, w := range net.workers {
		if err := w.Advertise(time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all donors pooled", func() bool { return pool.Size() == 3 })

	if pool.ShardCount() != 2 {
		t.Fatalf("ShardCount = %d, want the forced 2", pool.ShardCount())
	}
	sizes := pool.ShardSizes()
	total := 0
	for name, n := range sizes {
		if !strings.HasPrefix(name, "shard-") {
			t.Fatalf("synthetic shard named %q, want shard-N", name)
		}
		total += n
	}
	if total != 3 {
		t.Fatalf("shard sizes %v sum to %d, want every donor owned exactly once", sizes, total)
	}

	// Every farm key resolves to a non-empty, stable candidate set drawn
	// from the pool (shard-local, or the whole pool when the owning
	// shard is empty).
	all := pool.Peers()
	known := map[string]bool{}
	for _, p := range all {
		known[p.ID] = true
	}
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("tenant/t%d/farm/%d", i%3, i)
		peers := pool.ShardPeers(key)
		if len(peers) == 0 {
			t.Fatalf("ShardPeers(%q) empty while %d donors live", key, len(all))
		}
		for _, p := range peers {
			if !known[p.ID] {
				t.Fatalf("ShardPeers(%q) returned unknown donor %s", key, p.ID)
			}
		}
		again := pool.ShardPeers(key)
		if len(again) != len(peers) {
			t.Fatalf("ShardPeers(%q) unstable: %v then %v", key, peers, again)
		}
	}

	// Expire worker-a: the retraction must find its owning shard and
	// delete it there — a mis-routed retraction would leave the donor
	// behind and the totals would not shrink.
	if err := net.workers[0].Advertise(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	for _, sp := range net.supers {
		sp.SweepOnce()
	}
	waitFor(t, "retraction routed to the owning shard", func() bool { return pool.Size() == 2 })
	total = 0
	for _, n := range pool.ShardSizes() {
		total += n
	}
	if total != 2 {
		t.Fatalf("shard sizes sum to %d after retraction, want 2", total)
	}
	for _, p := range pool.Peers() {
		if p.ID == workerID(0) {
			t.Fatalf("retracted donor %s still pooled", workerID(0))
		}
	}
}

// TestDonorPoolDefaultShardsFollowRing: without a forced shard count
// the pool derives one shard per overlay ring member, so shard
// ownership agrees with advert placement.
func TestDonorPoolDefaultShardsFollowRing(t *testing.T) {
	net := newNet(t, 1, cpus(1000))
	pool, err := net.ctl.StartDonorPool(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.ShardCount() != len(net.supers) {
		t.Fatalf("ShardCount = %d, want one shard per super-peer (%d)",
			pool.ShardCount(), len(net.supers))
	}
}

// TestThinShardQuorumUsesWholePool: a farm whose shard seats fewer
// donors than its Quorum must draw its electorate from the whole pool,
// not fail on the shard's head count while the pool could seat it.
func TestThinShardQuorumUsesWholePool(t *testing.T) {
	const nChunks, perChunk, quorum = 3, 2, 3
	net := newNet(t, 4, cpus(1500, 1500, 1500, 1500))
	pool, err := net.ctl.StartDonorPool(RunOptions{PoolShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for _, w := range net.workers {
		if err := w.Advertise(time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all donors pooled", func() bool { return pool.Size() == len(net.workers) })

	// Pick a tenant whose first farm key lands on a shard that is
	// populated but thinner than the quorum — with 4 donors over 2
	// shards one always is, unless the hash left a shard empty (the
	// case the old empty-shard fallback already covered).
	tenant := ""
	for i := 0; i < 64 && tenant == ""; i++ {
		cand := fmt.Sprintf("thin-%d", i)
		key := fmt.Sprintf("tenant/%s/farm/%d", cand, net.ctl.farmSeq.Load()+1)
		if n := len(pool.shardFor(key).adverts()); n > 0 && n < quorum {
			tenant = cand
		}
	}
	if tenant == "" {
		t.Skipf("no populated thin shard in split %v", pool.ShardSizes())
	}

	rep, err := net.ctl.RunFarm(context.Background(), smokeChunks(nChunks, perChunk, 1), FarmOptions{
		Body:           func() *taskgraph.Graph { return smokeBody(t) },
		AttemptTimeout: 10 * time.Second,
		Quorum:         quorum,
		Tenant:         tenant,
	})
	if err != nil {
		t.Fatalf("Quorum %d farm on a thin shard (split %v): %v", quorum, pool.ShardSizes(), err)
	}
	committed := 0
	for _, n := range rep.PeerChunks {
		committed += n
	}
	if committed != nChunks || len(rep.Outputs) != nChunks*perChunk {
		t.Fatalf("committed %d chunks / %d outputs, want %d / %d",
			committed, len(rep.Outputs), nChunks, nChunks*perChunk)
	}
}

// smokeBody builds the one-task stateful accumulator group body the
// farm despatches.
func smokeBody(t *testing.T) *taskgraph.Graph {
	t.Helper()
	g := taskgraph.New("smokebody")
	task, err := units.NewTask("Accum", signal.NameAccumStat)
	if err != nil {
		t.Fatal(err)
	}
	g.MustAdd(task)
	g.ExternalIn = []taskgraph.Endpoint{{Task: "Accum", Node: 0}}
	g.ExternalOut = []taskgraph.Endpoint{{Task: "Accum", Node: 0}}
	return g
}

func smokeChunks(nChunks, perChunk int, base float64) [][]types.Data {
	chunks := make([][]types.Data, nChunks)
	for c := range chunks {
		for i := 0; i < perChunk; i++ {
			v := base + float64(c*perChunk+i)
			chunks[c] = append(chunks[c], &types.Spectrum{
				Resolution: 1, Amplitudes: []float64{v, 2 * v},
			})
		}
	}
	return chunks
}

// TestTenantSmoke is the `make tenant-smoke` scenario: two donor-pool
// shards, three equal-weight tenants farming concurrently through one
// controller. Each farm must commit every chunk, the tenants' admission
// grants must come out fair (Jain's index >= 0.9), and the per-tenant
// metric families must be present on the registry.
func TestTenantSmoke(t *testing.T) {
	const (
		tenantsN = 3
		nChunks  = 3
		perChunk = 2
	)
	net := newNet(t, 4, cpus(1500, 1500, 1500, 1500))
	pool, err := net.ctl.StartDonorPool(RunOptions{PoolShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for _, w := range net.workers {
		if err := w.Advertise(time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all donors pooled", func() bool { return pool.Size() == len(net.workers) })

	var wg sync.WaitGroup
	for ti := 0; ti < tenantsN; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", ti)
			rep, err := net.ctl.RunFarm(context.Background(),
				smokeChunks(nChunks, perChunk, float64(10*ti)), FarmOptions{
					Body:           func() *taskgraph.Graph { return smokeBody(t) },
					AttemptTimeout: 10 * time.Second,
					Tenant:         tenant,
				})
			if err != nil {
				t.Errorf("tenant %s farm: %v", tenant, err)
				return
			}
			committed := 0
			for _, n := range rep.PeerChunks {
				committed += n
			}
			if committed != nChunks || len(rep.Outputs) != nChunks*perChunk {
				t.Errorf("tenant %s committed %d chunks / %d outputs, want %d / %d",
					tenant, committed, len(rep.Outputs), nChunks, nChunks*perChunk)
			}
		}(ti)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Fairness: equal workloads at equal weight must be granted
	// near-equal slot counts.
	tenants, inflight, _ := net.ctl.Service().Tenants()
	if inflight != 0 {
		t.Fatalf("scheduler still shows %d in flight after the farms", inflight)
	}
	var grants []float64
	for _, ts := range tenants {
		if strings.HasPrefix(ts.Tenant, "t") {
			grants = append(grants, float64(ts.Admits))
		}
	}
	if len(grants) != tenantsN {
		t.Fatalf("snapshot shows %d smoke tenants, want %d: %+v", len(grants), tenantsN, tenants)
	}
	if j := policy.JainIndex(grants); j < 0.9 {
		t.Fatalf("Jain fairness index over admission grants = %.3f (%v), want >= 0.9", j, grants)
	}

	// The tenant-labelled families are live on the registry.
	var buf bytes.Buffer
	if err := metrics.Default().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, family := range []string{
		"service_tenant_admits_total",
		"service_tenant_inflight",
		"service_tenant_farms_total",
		"service_tenant_chunks_committed_total",
	} {
		series := fmt.Sprintf(`%s{peer="controller",tenant="t0"}`, family)
		if !strings.Contains(text, series) {
			t.Errorf("metrics output missing tenant-labelled series %s", series)
		}
	}
}
