package controller

// The tenant smoke scenario `make tenant-smoke` runs: a 3-tenant grid
// on one donor pool whose admission grants must come out fair.

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

// TestTenantSmoke is the `make tenant-smoke` scenario: one donor pool,
// three equal-weight tenants farming concurrently through one
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
	pool, err := net.ctl.StartDonorPool(RunOptions{})
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
					Body:   func() *taskgraph.Graph { return smokeBody(t) },
					Tenant: tenant,
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
