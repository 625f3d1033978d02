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
	// The free list must hold the same slabs whatever the collector does,
	// and never more than its bound, so the live heap after a fixed
	// amount of work repeats.
	var held []*[]complex128
	for i := 0; i < maxCScratch+3; i++ {
		sp, _ := getCScratch(64)
		held = append(held, sp)
	}
	for _, sp := range held {
		putCScratch(sp)
	}
	runtime.GC()
	runtime.GC()
	if n := len(cscratch); n != maxCScratch {
		t.Fatalf("free list holds %d slabs after two collections, want %d", n, maxCScratch)
	}
	kept := map[*[]complex128]bool{}
	for _, sp := range held[:maxCScratch] {
		kept[sp] = true
	}
	for i := 0; i < maxCScratch; i++ {
		sp, s := getCScratch(64)
		if !kept[sp] || len(s) != 64 {
			t.Fatalf("borrow %d: got a slab the list did not keep (len %d)", i, len(s))
		}
		defer putCScratch(sp)
	}
}
