package signal

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"consumergrid/internal/dsp"
	"consumergrid/internal/types"
	"consumergrid/internal/units"
)

// inspiralStretch is a fixed-seed detector stretch: unit Gaussian noise
// with a 50→400 Hz chirp of amplitude 2 injected at sample 3000.
func inspiralStretch(n int) *types.SampleSet {
	rng := rand.New(rand.NewSource(32))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	for i, v := range dsp.Chirp(50, 400, 2000, 2048) {
		xs[3000+i] += 2 * v
	}
	return types.NewSampleSet(2000, xs)
}

// matchedTableDigest is the SHA-256 of the canonical encoding of the
// table a default 16×2048 MatchedFilter emits for inspiralStretch(16384),
// as the unit computed it when it still collected every correlation
// series before reducing them. The reduction must not change a byte.
const matchedTableDigest = "bb732678dae7d3677d234d45ae35972a9ec3f7f20bdb4dd89037fecb5b3e8569"

func TestMatchedFilterTableUnchanged(t *testing.T) {
	mf := mustNew(t, NameMatchedFilter, nil)
	tab := run1(t, mf, inspiralStretch(16384))
	p, err := types.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(p)
	if got := hex.EncodeToString(sum[:]); got != matchedTableDigest {
		t.Fatalf("table digest %s, want %s; table %v", got, matchedTableDigest, tab.(*types.Table).Rows)
	}
}

// processAlloc reports the bytes one MatchedFilter.Process call
// allocates, averaged over two calls after a warm-up call.
func processAlloc(t *testing.T, templates int, sig *types.SampleSet) uint64 {
	t.Helper()
	mf := mustNew(t, NameMatchedFilter, units.Params{"templates": strconv.Itoa(templates)})
	in := []types.Data{sig}
	if _, err := mf.Process(units.TestContext(), in); err != nil {
		t.Fatal(err)
	}
	const calls = 2
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := mf.Process(units.TestContext(), in); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / calls
}

// TestMatchedFilterAllocBound pins the bank reduction's memory: a call
// keeps one peak and one SNR per template, and every complex and real
// array the kernel touches is a borrowed workspace, so a call allocates
// only its table, its goroutines and its per-template peaks. One real
// series per call (112 KiB at 16,384 samples) breaks the bound, and a
// bank three times larger allocates about the same.
func TestMatchedFilterAllocBound(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	sig := inspiralStretch(16384)
	small := processAlloc(t, 16, sig)
	const bound = 16 << 10
	if small > bound {
		t.Errorf("Process on a 16×2048 bank allocates %d B per call, bound %d", small, bound)
	}
	large := processAlloc(t, 48, sig)
	if large > small+32<<10 {
		t.Errorf("Process allocates %d B per call on 48 templates against %d on 16: it grows with the bank", large, small)
	}
}

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestMatchedFilterBankBuiltOncePerProcess pins the bank memo: every job
// of a search initialises its filter with the same parameters, and a
// donor builds that 256 KiB bank once, not once per job.
func TestMatchedFilterBankBuiltOncePerProcess(t *testing.T) {
	params := units.Params{"templates": "16", "templateLen": "2048"}
	first := mustNew(t, NameMatchedFilter, params).(*MatchedFilter)
	var second *MatchedFilter
	if n := allocated(func() {
		second = mustNew(t, NameMatchedFilter, params).(*MatchedFilter)
	}); n >= 16<<10 {
		t.Errorf("a second Init with the same parameters allocates %d B", n)
	}
	if &second.bank[0][0] != &first.bank[0][0] {
		t.Error("a second Init with the same parameters built its own bank")
	}
	other := mustNew(t, NameMatchedFilter, units.Params{"templates": "8", "templateLen": "2048"}).(*MatchedFilter)
	if other.BankSize() != 8 || &other.bank[0][0] == &first.bank[0][0] {
		t.Fatalf("other parameters share the first bank (size %d)", other.BankSize())
	}
	if want := dsp.TemplateBank(8, 2048, 40, 200, 400, 2000); !reflect.DeepEqual(other.bank, want) {
		t.Error("the memoised bank differs from dsp.TemplateBank's")
	}

	// Jobs initialise and run concurrently on a donor; the shared bank
	// is only read. Two parameter sets alternate, so the entry is
	// replaced while other units still correlate against the old bank.
	sig := inspiralStretch(8192)
	sets := []units.Params{
		{"templates": "4", "templateLen": "256"},
		{"templates": "5", "templateLen": "256", "f0Hi": "150"},
	}
	want := make([]types.Data, len(sets))
	for i, p := range sets {
		want[i] = run1(t, mustNew(t, NameMatchedFilter, p), sig)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				i := (g + r) % len(sets)
				u, err := units.New(NameMatchedFilter, sets[i])
				if err != nil {
					t.Error(err)
					return
				}
				out, err := u.Process(units.TestContext(), []types.Data{sig})
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(out[0], want[i]) {
					t.Errorf("set %d: concurrent table %v, want %v", i, out[0], want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestInjectChirpBuildsChirpOncePerRate pins InjectChirp's kept chirp:
// a later item at the same rate reuses it, bit for bit, and a new rate
// rebuilds it.
func TestInjectChirpBuildsChirpOncePerRate(t *testing.T) {
	const length, offset, amp = 2048, 100, 3
	inj := mustNew(t, NameInjectChirp, units.Params{
		"length": strconv.Itoa(length), "offset": strconv.Itoa(offset), "amplitude": "3"})
	noise := inspiralStretch(8192).Samples
	for k, rate := range []float64{2000, 2000, 4000} {
		in := types.NewSampleSet(rate, noise) // owned: injected in place
		var out types.Data
		n := allocated(func() { out = run1(t, inj, in) })
		if k == 1 && n >= length*8 {
			t.Errorf("the second item at rate %g allocates %d B, a chirp is %d", rate, n, length*8)
		}
		want := append([]float64(nil), noise...)
		for i, v := range dsp.Chirp(50, 400, rate, length) {
			want[offset+i] += amp * v
		}
		got := out.(*types.SampleSet).Samples
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("item %d (rate %g) sample %d: %g, want %g", k, rate, i, got[i], want[i])
			}
		}
	}
}
