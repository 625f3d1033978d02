package main

import (
	"bufio"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"consumergrid/internal/dsp"
	"consumergrid/internal/metrics"
)

// metric is one reported number. n is how many samples or events stand
// behind it (0 for a single reading).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

type metricSet map[string]metric

func (m metricSet) put(name string, value float64, unit string, n int) {
	m[name] = metric{Value: value, Unit: unit, N: n}
}

// reading is every process-wide gauge the harness differences over a
// measured run. The whole grid is this one process, so rusage and the Go
// heap cover every peer.
type reading struct {
	at       time.Time
	cpu      time.Duration
	mem      runtime.MemStats
	counters map[string]float64
}

func takeReading() reading {
	r := reading{counters: readRegistry()}
	runtime.ReadMemStats(&r.mem)
	r.cpu = cpuTime()
	r.at = time.Now()
	return r
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime is the process's user plus system time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMB is the process's high-water resident set (Linux reports KB).
func rssPeakMB() float64 { return float64(rusage().Maxrss) / 1024 }

// readRegistry snapshots the program's own metrics registry through its
// exposition format: series name (with labels) -> value. Counters and
// histogram _sum/_count series are what the harness differences.
func readRegistry() map[string]float64 {
	var b strings.Builder
	// Writes to a strings.Builder cannot fail.
	_ = metrics.Default().WritePrometheus(&b)
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		// The value follows the last space; label values hold no spaces
		// the harness cares about (peer IDs, tenants, sources).
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// counterDelta sums, over every series of a family whose label block
// holds all the given fragments, the growth between two readings.
func counterDelta(before, after reading, family string, labels ...string) float64 {
	total := 0.0
	for series, v := range after.counters {
		name, block, _ := strings.Cut(series, "{")
		if name != family {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(block, l) {
				match = false
				break
			}
		}
		if match {
			total += v - before.counters[series]
		}
	}
	return total
}

// quantile returns the p-th percentile (0..100) of sorted samples, by
// linear interpolation; NaN when there are none.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 50) }

// opStats is the outcome of driving a session for a while.
type opStats struct {
	// latMS holds the entry-call latency of every correct op, sorted.
	latMS             []float64
	attempted, failed int
	elapsed           time.Duration
	firstErr          error
	before, after     reading
	// spans holds every correct op's interval and ticks the process's CPU
	// time at each slice boundary, both relative to the start.
	spans []interval
	ticks []tick
}

type interval struct{ begin, end time.Duration }

type tick struct{ at, cpu time.Duration }

func (s opStats) ok() int { return s.attempted - s.failed }

// merge folds another block of ops into s; readings are not merged.
func (s *opStats) merge(o opStats) {
	s.latMS = append(s.latMS, o.latMS...)
	sort.Float64s(s.latMS)
	s.attempted += o.attempted
	s.failed += o.failed
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

// windowSlices is how many pieces the measured window is cut into, and
// quiet how many of them are kept as the sample: a quarter. Finer slices and a smaller share ride out more of the
// machine's noise but leave fewer ops to take percentiles of; on recorded
// runs one-second slices with the best five kept did as well as anything
// short of keeping a single slice.
const (
	windowSlices = 20
	quiet        = windowSlices / 4
)

// quietSample is what the quiet slices of a window measured.
type quietSample struct {
	opsPerS, cpuMSPerOp, p50, p90 float64
	// n is how many ops ran, at least partly, inside the quiet slices.
	n int
}

// quietSlices cuts the run at its CPU ticks, keeps the quiet slices with
// the highest throughput, and measures throughput, CPU cost per op and
// latency percentiles over them alone. On a shared two-core machine a
// neighbour slows stretches of a run by a third or more, for seconds at
// a time; it only ever slows, so the least-disturbed slices estimate
// what the grid does when the machine lets it, as the minimum of
// repeated timings does for a microbenchmark. A change to the program
// moves every slice. A slice's op count is fractional — each op counts
// for the share of its interval inside the slice — so slow ops and slice
// edges add no quantisation noise; the latency sample is every op that
// ran, at least partly, inside a kept slice.
func (s opStats) quietSlices() quietSample {
	type slice struct {
		from, to tick
		ops      float64
	}
	overlap := func(sp interval, sl slice) time.Duration {
		lo, hi := sp.begin, sp.end
		if lo < sl.from.at {
			lo = sl.from.at
		}
		if hi > sl.to.at {
			hi = sl.to.at
		}
		return hi - lo
	}
	var all []slice
	for k := 1; k < len(s.ticks); k++ {
		sl := slice{from: s.ticks[k-1], to: s.ticks[k]}
		for _, sp := range s.spans {
			if d := overlap(sp, sl); d > 0 {
				sl.ops += float64(d) / float64(sp.end-sp.begin)
			}
		}
		all = append(all, sl)
	}
	rate := func(sl slice) float64 { return sl.ops / (sl.to.at - sl.from.at).Seconds() }
	sort.Slice(all, func(i, j int) bool { return rate(all[i]) > rate(all[j]) })
	if len(all) > quiet {
		all = all[:quiet]
	}
	var ops, secs, cpuMS float64
	for _, sl := range all {
		ops += sl.ops
		secs += (sl.to.at - sl.from.at).Seconds()
		cpuMS += (sl.to.cpu - sl.from.cpu).Seconds() * 1e3
	}
	var lat []float64
	for _, sp := range s.spans {
		for _, sl := range all {
			if overlap(sp, sl) > 0 {
				lat = append(lat, (sp.end-sp.begin).Seconds()*1e3)
				break
			}
		}
	}
	sort.Float64s(lat)
	return quietSample{ops / secs, cpuMS / ops, quantile(lat, 50), quantile(lat, 90), len(lat)}
}

// load is how a session is driven: closed-loop clients, each submitting
// its next op when the previous one returns.
type load struct {
	clients int
	// more says whether another op may start; it sees how many have been
	// claimed so far.
	more func(claimed int) bool
	// onOp, when set, observes every op (the traced run's root spans).
	onOp func(begin time.Time, took time.Duration)
	// slice, when positive, is the period at which CPU time is sampled
	// for quietSlices.
	slice time.Duration
}

func (l load) drive(s *session) opStats {
	var (
		mu      sync.Mutex
		st      opStats
		claimed atomic.Int64
		wg      sync.WaitGroup
	)
	st.before = takeReading()
	start := st.before.at
	stopTicks := make(chan struct{})
	var ticking sync.WaitGroup
	if l.slice > 0 {
		st.ticks = append(st.ticks, tick{0, st.before.cpu})
		ticking.Add(1)
		go func() {
			defer ticking.Done()
			t := time.NewTicker(l.slice)
			defer t.Stop()
			for {
				select {
				case <-stopTicks:
					return
				case <-t.C:
					st.ticks = append(st.ticks, tick{time.Since(start), cpuTime()})
				}
			}
		}()
	}
	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for l.more(int(claimed.Add(1)) - 1) {
				begin := time.Now()
				took, err := s.op(client)
				end := time.Since(start)
				if l.onOp != nil {
					l.onOp(begin, took)
				}
				mu.Lock()
				st.attempted++
				if err != nil {
					st.failed++
					if st.firstErr == nil {
						st.firstErr = err
					}
				} else {
					st.latMS = append(st.latMS, took.Seconds()*1e3)
					st.spans = append(st.spans, interval{begin.Sub(start), end})
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(stopTicks)
	ticking.Wait()
	st.after = takeReading()
	st.elapsed = st.after.at.Sub(st.before.at)
	sort.Float64s(st.latMS)
	return st
}

func forOps(n int) func(int) bool { return func(claimed int) bool { return claimed < n } }

func forDuration(d time.Duration) func(int) bool {
	deadline := time.Now().Add(d)
	return func(int) bool { return time.Now().Before(deadline) }
}

// calibrate times dsp.FFT at n=16384 for 300 ms and returns the median
// microseconds: a fixed piece of pure computation whose drift across a
// run says the machine, not the program, moved.
func calibrate() float64 {
	const n = 16384
	x := make([]complex128, n)
	var us []float64
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		for i := range x {
			x[i] = complex(float64(i%17), 0)
		}
		begin := time.Now()
		dsp.FFT(x)
		us = append(us, time.Since(begin).Seconds()*1e6)
	}
	return median(us)
}
