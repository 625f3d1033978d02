package main

import (
	"fmt"
	"runtime"
	"time"
)

// sizing fixes how much work a run does besides its measured window.
type sizing struct {
	// setupRepeats is how many times a run stands the grid up and warms
	// it: set-up is short, so one timing of it is noisy; the median of
	// several is reported. The last set-up is the one measured on.
	setupRepeats int
	// opsDiv divides every workload's warm-up and traced op counts.
	opsDiv int
	// warmFor is how long each warm-up lasts at the least.
	warmFor time.Duration
	// probeCalls and probeBudget bound each stage probe, donorLives the
	// daemons started for the service-lifecycle probes.
	probeCalls  int
	probeBudget time.Duration
	donorLives  int
}

// ops scales a fixed op count, never below one op.
func (z sizing) ops(n int) int {
	if n /= z.opsDiv; n < 1 {
		return 1
	}
	return n
}

// fullSize is the benchmark; only the self-test runs anything smaller.
var fullSize = sizing{setupRepeats: 3, opsDiv: 1, warmFor: 2 * time.Second, probeCalls: 200, probeBudget: 250 * time.Millisecond, donorLives: 24}

// procs pins the scheduler width: the load model is sized for two cores,
// and GOMAXPROCS would otherwise follow the machine.
const procs = 2

// result is what one run of one workload reports.
type result struct {
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
	// FirstError is the first failed op's reason, for the human reader.
	FirstError string `json:"first_error,omitempty"`
}

// setupReading is what one set-up measured.
type setupReading struct {
	// seconds is the wall time from nothing to the first measurable op,
	// standUpS the part of it before the first warm-up op.
	seconds, standUpS float64
	// allocMB is what stand-up alone allocated.
	allocMB float64
	// liveMB is the live heap after the fixed warm-up op count.
	liveMB float64
}

// setUp stands the grid up and warms it: first with the workload's fixed
// warm-up op count, after which the live heap is read, then with as many
// more ops as fit until the warm-up has lasted size.warmFor. The fixed
// count makes the heap reading repeat; the fixed time makes setup_s move
// with stand-up, not with how fast this machine runs warm-up ops today.
func setUp(w workload, seed int64, size sizing) (g *grid, s *session, r setupReading, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	begin := time.Now()
	if g, err = standUp(w.donors); err != nil {
		return nil, nil, r, fmt.Errorf("stand-up: %w", err)
	}
	runtime.ReadMemStats(&m1)
	r.standUpS = time.Since(begin).Seconds()
	r.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	s = w.start(g, seed)
	warmBegin := time.Now()
	warm := load{clients: clients, more: forOps(size.ops(w.warmupOps))}.drive(s)
	r.liveMB = liveHeapMB()
	if rest := size.warmFor - time.Since(warmBegin); rest > 0 && warm.failed == 0 {
		warm.merge(load{clients: clients, more: forDuration(rest)}.drive(s))
	}
	if warm.failed > 0 {
		g.close()
		return nil, nil, r, fmt.Errorf("warm-up: %d of %d ops failed, first: %w", warm.failed, warm.attempted, warm.firstErr)
	}
	r.seconds = time.Since(begin).Seconds()
	return g, s, r, nil
}

// measure is the untraced run: the end-to-end metrics, tracing off, two
// closed-loop clients for the whole measured window.
func measure(w workload, seed int64, window time.Duration, size sizing) (*result, error) {
	runtime.GOMAXPROCS(procs)
	var (
		g        *grid
		s        *session
		last     setupReading
		seconds  []float64
		allocMB  []float64
		standUpS []float64
	)
	for i := 0; i < size.setupRepeats; i++ {
		if g != nil {
			g.close()
			runtime.GC()
		}
		var err error
		if g, s, last, err = setUp(w, seed, size); err != nil {
			return nil, err
		}
		seconds = append(seconds, last.seconds)
		allocMB = append(allocMB, last.allocMB)
		standUpS = append(standUpS, last.standUpS)
	}
	defer g.close()

	if s.churn != nil {
		s.churn.run()
	}
	st := load{clients: clients, more: forDuration(window)}.drive(s)
	liveAtEnd := liveHeapMB()
	res := &result{Attempted: st.attempted, Failed: st.failed, Metrics: metricSet{}}
	if st.firstErr != nil {
		res.FirstError = st.firstErr.Error()
	}
	s.endChurn(res)
	if st.ok() == 0 {
		return nil, fmt.Errorf("no op succeeded in %v, first error: %v", window, st.firstErr)
	}

	m, ops := res.Metrics, float64(st.ok())
	m.put("setup_s", median(seconds), "s", len(seconds))
	m.put("setup_alloc_mb", median(allocMB), "MB", len(allocMB))
	m.put("harness.stand_up_s", median(standUpS), "s", len(standUpS))
	// Timings are the traced run's to report; these are the whole window's,
	// printed for the reader.
	m.put("window.ops_per_s", ops/st.elapsed.Seconds(), "1/s", st.ok())
	m.put("window.op_ms_p50", quantile(st.latMS, 50), "ms", len(st.latMS))
	m.put("window.op_ms_p90", quantile(st.latMS, 90), "ms", len(st.latMS))
	m.put("window.op_ms_p99", quantile(st.latMS, 99), "ms", len(st.latMS))
	m.put("window.cpu_ms_per_op", (st.after.cpu-st.before.cpu).Seconds()*1e3/ops, "ms", st.ok())
	m.put("alloc_kb_per_op", float64(st.after.mem.TotalAlloc-st.before.mem.TotalAlloc)/1e3/ops, "KB", st.ok())
	m.put("allocs_per_op", float64(st.after.mem.Mallocs-st.before.mem.Mallocs)/ops, "count", st.ok())
	m.put("wire_kb_per_op", counterDelta(st.before, st.after, "jxtaserve_bytes_sent_total")/1e3/ops, "KB", st.ok())
	m.put("heap_live_mb", last.liveMB, "MB", 0)
	m.put("window.heap_live_mb", liveAtEnd, "MB", 0)
	m.put("harness.rss_peak_mb", rssPeakMB(), "MB", 0)
	return res, nil
}

// liveHeapMB is the heap still reachable after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// trace is the traced run: the per-layer metrics. It measures a
// two-client window, no span recorded, for the timing metrics and the
// counts the program itself keeps, then one client over a fixed op count
// with and without harness spans, then the stage probes, and reconciles
// the probes against the traced latency.
func trace(w workload, seed int64, window time.Duration, outDir string, size sizing) (*result, error) {
	runtime.GOMAXPROCS(procs)
	g, s, _, err := setUp(w, seed, size)
	if err != nil {
		return nil, err
	}
	defer g.close()

	if s.churn != nil {
		s.churn.run()
	}
	counted := load{clients: clients, more: forDuration(window), slice: window / windowSlices}.drive(s)

	// Plain and traced blocks alternate A B B A over the same op count, so
	// drift over the process's life cancels instead of reading as overhead.
	rec := newRecorder(w.name)
	var plain, traced opStats
	tracedOps := 0 // one client, so no lock
	for _, withSpans := range []bool{false, true, true, false} {
		into, block := &plain, load{clients: 1, more: forOps(size.ops(w.tracedOps / 2))}
		if withSpans {
			into = &traced
			block.onOp = func(begin time.Time, took time.Duration) {
				rec.add(0, "op", tracedOps, begin, took)
				tracedOps++
			}
		}
		into.merge(block.drive(s))
	}
	res := &result{
		Attempted: counted.attempted + plain.attempted + traced.attempted,
		Failed:    counted.failed + plain.failed + traced.failed,
		Metrics:   metricSet{},
	}
	m := res.Metrics
	for _, st := range []opStats{counted, plain, traced} {
		if st.firstErr != nil && res.FirstError == "" {
			res.FirstError = st.firstErr.Error()
		}
	}
	s.endChurn(res)
	for _, st := range []opStats{counted, plain, traced} {
		if st.ok() == 0 {
			return nil, fmt.Errorf("no op succeeded, first error: %v", st.firstErr)
		}
	}

	p := &prober{g: g, kit: w.kit(seed), size: size, rec: rec, out: m}
	p.root = rec.add(0, "probe", 0, time.Now(), 0)
	if err := p.runProbes(); err != nil {
		return nil, err
	}
	countMetrics(m, counted)
	m.put("failed_share", float64(res.Failed)/float64(res.Attempted), "ratio", res.Attempted)
	tracedP50 := quantile(traced.latMS, 50)
	m.put("harness.trace_overhead_share", tracedP50/quantile(plain.latMS, 50)-1, "ratio", len(traced.latMS))
	budget(m, p, counted, tracedP50)
	m.put("harness.heap_live_end_mb", liveHeapMB(), "MB", 0)
	m.put("harness.rss_peak_mb", rssPeakMB(), "MB", 0)
	path, err := rec.flush(outDir)
	if err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Printf("trace: %d spans in %s\n", len(rec.spans), path)
	return res, nil
}

// share is part/whole, 0 when there is no whole.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// countMetrics derives the layer metrics that are deltas of the
// program's own registry over the counted window. No instrumentation is
// added: these are series the program already keeps.
func countMetrics(m metricSet, st opStats) {
	ops := float64(st.ok())
	delta := func(family string, labels ...string) float64 {
		return counterDelta(st.before, st.after, family, labels...)
	}
	perOp := func(name, unit, family string, scale float64, labels ...string) {
		m.put(name, delta(family, labels...)*scale/ops, unit, st.ok())
	}

	hits, misses := delta("chunkstore_cache_hits_total"), delta("chunkstore_cache_misses_total")
	ring := delta("chunkstore_fetch_total", `source="ring"`)
	peer := delta("chunkstore_fetch_total", `source="peer"`)
	ctl := delta("chunkstore_fetch_total", `source="controller"`)
	resolved := hits + ring + peer + ctl
	m.put("chunkstore.fetch_share.local", share(hits, resolved), "ratio", int(resolved))
	m.put("chunkstore.fetch_share.ring", share(ring, resolved), "ratio", int(resolved))
	m.put("chunkstore.fetch_share.peer", share(peer, resolved), "ratio", int(resolved))
	m.put("chunkstore.fetch_share.controller", share(ctl, resolved), "ratio", int(resolved))
	m.put("chunkstore.cache_hit_share", share(hits, hits+misses), "ratio", int(hits+misses))
	perOp("chunkstore.saved_kb_per_op", "KB", "chunkstore_bytes_saved_total", 1e-3)

	perOp("jxtaserve.msgs_per_op", "count", "jxtaserve_messages_sent_total", 1)
	// Negotiations happen when peers first meet, mostly at stand-up, so
	// these are totals for the process, not deltas.
	for name, proto := range map[string]string{"binary": "binary/1", "xml": "xml/1", "legacy": "legacy"} {
		m.put("jxtaserve.negotiated."+name, st.after.counters[`wire_negotiated_total{proto="`+proto+`"}`], "count", 0)
	}

	perOp("service.despatches_per_op", "count", "service_despatches_total", 1)
	perOp("service.redespatches_per_op", "count", "service_redespatches_total", 1)
	perOp("service.retries_per_op", "count", "service_retries_total", 1)
	perOp("service.wasted_items_per_op", "count", "service_wasted_items_total", 1)
	perOp("service.quorum_commits_per_op", "count", "service_quorum_commits_total", 1)
	perOp("service.quorum_disagreements_per_op", "count", "service_quorum_disagreements_total", 1)
	perOp("service.sheds_per_op", "count", "service_despatch_shed_total", 1)
	perOp("egress_kb_per_op", "KB", "service_farm_egress_bytes_total", 1e-3, `peer="controller"`)
	// The admission queue's own histogram, both tenants; zero when the
	// workload despatches nothing.
	wait := 0.0
	for t := 0; t < clients; t++ {
		wait += st.after.counters[fmt.Sprintf(`service_tenant_sched_wait_seconds{peer="controller",tenant="t%d",quantile="0.5"}`, t)]
	}
	m.put("service.sched_wait_ms_p50", wait/clients*1e3, "ms", 0)

	perOp("mcode.fetches_per_op", "count", "mcode_fetches_total", 1)
	storeHits, storeMisses := delta("mcode_store_hits_total"), delta("mcode_store_misses_total")
	m.put("mcode.store_hit_share", share(storeHits, storeHits+storeMisses), "ratio", int(storeHits+storeMisses))

	// Wall time summed over concurrently running units, so it can exceed
	// the op's own latency.
	// The per-unit series: the unlabelled one repeats their total.
	perOp("engine.unit_exec_ms_per_op", "ms", "engine_unit_exec_seconds_sum", 1e3, "unit=")
	perOp("engine.cow_clones_per_op", "count", "engine_cow_clones_total", 1)
	q := st.quietSlices()
	m.put("ops_per_s", q.opsPerS, "1/s", q.n)
	m.put("cpu_ms_per_op", q.cpuMSPerOp, "ms", q.n)
	m.put("op_ms_p50", q.p50, "ms", q.n)
	m.put("op_ms_p90", q.p90, "ms", q.n)
	m.put("harness.op_ms_p99", quantile(st.latMS, 99), "ms", len(st.latMS))
}
