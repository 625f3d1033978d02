package dsp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestCrossCorrelateBankMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, 300)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	// Mixed template lengths exercise the shared padded length.
	bank := make([][]float64, 9)
	for i := range bank {
		h := make([]float64, 5+13*i)
		for j := range h {
			h[j] = rng.NormFloat64()
		}
		bank[i] = h
	}
	out, err := CrossCorrelateBank(context.Background(), x, bank)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(bank) {
		t.Fatalf("got %d results for %d templates", len(out), len(bank))
	}
	for i, h := range bank {
		want := CrossCorrelateDirect(x, h)
		if len(out[i]) != len(want) {
			t.Fatalf("template %d: %d lags, want %d", i, len(out[i]), len(want))
		}
		for l := range want {
			if math.Abs(out[i][l]-want[l]) > 1e-8*float64(len(x)) {
				t.Fatalf("template %d lag %d: %g vs %g", i, l, out[i][l], want[l])
			}
		}
	}
}

func TestCrossCorrelateBankDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, 512)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	bank := make([][]float64, 32)
	for i := range bank {
		h := make([]float64, 64)
		for j := range h {
			h[j] = rng.NormFloat64()
		}
		bank[i] = h
	}
	first, err := CrossCorrelateBank(context.Background(), x, bank)
	if err != nil {
		t.Fatal(err)
	}
	// The worker fan-out must not perturb bit-level results or ordering.
	for trial := 0; trial < 3; trial++ {
		again, err := CrossCorrelateBank(context.Background(), x, bank)
		if err != nil {
			t.Fatal(err)
		}
		for i := range first {
			for l := range first[i] {
				if again[i][l] != first[i][l] {
					t.Fatalf("trial %d template %d lag %d: %g != %g",
						trial, i, l, again[i][l], first[i][l])
				}
			}
		}
	}
}

func TestCrossCorrelateBankErrors(t *testing.T) {
	x := []float64{1, 2, 3}
	if _, err := CrossCorrelateBank(context.Background(), nil, [][]float64{{1}}); err == nil {
		t.Error("empty signal accepted")
	}
	if _, err := CrossCorrelateBank(context.Background(), x, [][]float64{{1}, nil}); err == nil {
		t.Error("empty template accepted")
	}
	if _, err := CrossCorrelateBank(context.Background(), x, [][]float64{{1, 2, 3, 4}}); err == nil {
		t.Error("template longer than signal accepted")
	}
	out, err := CrossCorrelateBank(context.Background(), x, nil)
	if err != nil || len(out) != 0 {
		t.Errorf("empty bank: %v, %v", out, err)
	}
}

func TestCrossCorrelateEachVisitsEveryTemplateOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := make([]float64, 700)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	bank := make([][]float64, 23)
	for i := range bank {
		h := make([]float64, 3+17*i)
		for j := range h {
			h[j] = rng.NormFloat64()
		}
		bank[i] = h
	}
	want, err := CrossCorrelateBank(context.Background(), x, bank)
	if err != nil {
		t.Fatal(err)
	}
	// Visits run concurrently on the workers; each writes only its own
	// template's slot, so the race detector sees any overlap.
	visits := make([]int, len(bank))
	got := make([][]float64, len(bank))
	err = CrossCorrelateEach(context.Background(), x, bank, func(i int, corr []float64) {
		visits[i]++
		got[i] = append([]float64(nil), corr...)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range bank {
		if visits[i] != 1 {
			t.Fatalf("template %d visited %d times", i, visits[i])
		}
		if len(got[i]) != len(want[i]) {
			t.Fatalf("template %d: %d lags, want %d", i, len(got[i]), len(want[i]))
		}
		for l := range want[i] {
			if math.Float64bits(got[i][l]) != math.Float64bits(want[i][l]) {
				t.Fatalf("template %d lag %d: %g, Bank has %g", i, l, got[i][l], want[i][l])
			}
		}
	}
}

// eachSeries collects what CrossCorrelateEach visits at the given
// GOMAXPROCS.
func eachSeries(t *testing.T, procs int, x []float64, bank [][]float64) [][]float64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	out := make([][]float64, len(bank))
	err := CrossCorrelateEach(context.Background(), x, bank, func(i int, corr []float64) {
		out[i] = append([]float64(nil), corr...)
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCrossCorrelateEachPairsMatchDirect covers the paired kernel at the
// signal's own padded length: odd and even banks (the last template of
// an odd bank has no partner), templates of different lengths sharing
// one transform, signals whose length is not a power of two, and a
// template as long as the signal, whose only lag sits at the very end
// of the circular result. Every series matches the direct sum, and the
// values do not depend on how many workers ran.
func TestCrossCorrelateEachPairsMatchDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	normal := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	cases := []struct {
		name    string
		signal  int
		lengths []int
	}{
		{"one", 2049, []int{100}},
		{"two-mixed", 1000, []int{31, 200}},
		{"seventeen-mixed", 5000, []int{3, 64, 1200, 17, 500, 999, 2, 250, 1024, 7, 333, 800, 1, 128, 640, 45, 1100}},
		{"full-length", 777, []int{777, 10, 777}},
		{"pow2-signal", 4096, []int{4096, 2048, 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			x := normal(c.signal)
			bank := make([][]float64, len(c.lengths))
			for i, n := range c.lengths {
				bank[i] = normal(n)
			}
			first := eachSeries(t, 1, x, bank)
			for i, h := range bank {
				want := CrossCorrelateDirect(x, h)
				if len(first[i]) != len(want) {
					t.Fatalf("template %d: %d lags, want %d", i, len(first[i]), len(want))
				}
				scale := 0.0
				for _, v := range want {
					scale = max(scale, math.Abs(v))
				}
				for l := range want {
					if d := math.Abs(first[i][l] - want[l]); d > 1e-12*scale {
						t.Fatalf("template %d (len %d) lag %d: %g vs direct %g (diff %g, scale %g)",
							i, len(h), l, first[i][l], want[l], d, scale)
					}
				}
			}
			for _, procs := range []int{1, 4, 1, 4} {
				again := eachSeries(t, procs, x, bank)
				for i := range first {
					for l := range first[i] {
						if math.Float64bits(again[i][l]) != math.Float64bits(first[i][l]) {
							t.Fatalf("GOMAXPROCS=%d template %d lag %d: %g != %g",
								procs, i, l, again[i][l], first[i][l])
						}
					}
				}
			}
		})
	}
}

func TestCrossCorrelateEachReturnsCtxErr(t *testing.T) {
	// Two workers: a template already handed out when the cancel lands
	// still finishes, so a wide pool could take the whole bank first.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	x := make([]float64, 4096)
	bank := make([][]float64, 64)
	for i := range bank {
		bank[i] = make([]float64, 256)
		bank[i][0] = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	var seen atomic.Int32
	err := CrossCorrelateEach(ctx, x, bank, func(int, []float64) {
		if seen.Add(1) == 2 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if n := seen.Load(); n >= int32(len(bank)) {
		t.Errorf("cancelled run still visited all %d templates", n)
	}
	if _, err := CrossCorrelateBank(ctx, x, bank); !errors.Is(err, context.Canceled) {
		t.Errorf("Bank on a cancelled context returned %v", err)
	}
}

func TestPlanCacheEviction(t *testing.T) {
	// Run more distinct lengths than the cache holds; every transform must
	// stay correct through evictions.
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096} {
		x := randComplex(n, rng)
		orig := append([]complex128(nil), x...)
		FFT(x)
		IFFT(x)
		if e := maxErr(x, orig); e > 1e-9*float64(n) {
			t.Errorf("n=%d: round-trip error %g after eviction churn", n, e)
		}
	}
	fftPlans.Lock()
	if len(fftPlans.byN) > maxFFTPlans {
		t.Errorf("cache holds %d plans, bound is %d", len(fftPlans.byN), maxFFTPlans)
	}
	if len(fftPlans.order) != len(fftPlans.byN) {
		t.Errorf("LRU order list (%d) out of sync with map (%d)",
			len(fftPlans.order), len(fftPlans.byN))
	}
	fftPlans.Unlock()
}

func TestCScratchKeepsBoundedSlabsAcrossGC(t *testing.T) {
	// The one workspace list (bank workers, the signal's transform and
	// Bluestein share it) must hold the same workspaces whatever the
	// collector does, and never more than its bound, so the live heap
	// after a fixed amount of work repeats.
	var held []*workspace
	for i := 0; i < maxWorkspaces+3; i++ {
		held = append(held, getWorkspace(64))
	}
	for _, w := range held {
		putWorkspace(w)
	}
	runtime.GC()
	runtime.GC()
	workspaces.Lock()
	n := len(workspaces.free)
	workspaces.Unlock()
	if n != maxWorkspaces {
		t.Fatalf("free list holds %d workspaces after two collections, want %d", n, maxWorkspaces)
	}
	kept := map[*workspace]bool{}
	for _, w := range held[:maxWorkspaces] {
		kept[w] = true
	}
	for i := 0; i < maxWorkspaces; i++ {
		w := getWorkspace(64)
		if !kept[w] || len(w.c) != 64 {
			t.Fatalf("borrow %d: got a workspace the list did not keep (len %d)", i, len(w.c))
		}
		defer putWorkspace(w)
	}
}

// BenchmarkCrossCorrelateEach runs the §3.6.2 bank a workflow_inspiral
// donor runs: 16 templates of 2,048 samples against a 16,384-sample
// stretch, each series reduced in its visit as MatchedFilter does.
func BenchmarkCrossCorrelateEach(b *testing.B) {
	x := GaussianNoise(16384, 1, rand.New(rand.NewSource(1)))
	bank := TemplateBank(16, 2048, 40, 200, 400, 2000)
	peaks := make([]float64, len(bank))
	visit := func(i int, corr []float64) { peaks[i] = SNR(corr) }
	if err := CrossCorrelateEach(context.Background(), x, bank, visit); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := CrossCorrelateEach(context.Background(), x, bank, visit); err != nil {
			b.Fatal(err)
		}
	}
}
