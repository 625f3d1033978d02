package signal

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"runtime"
	"strconv"
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
// keeps one peak and one SNR per template, so it allocates one real
// series per worker, not one per template, nor a fresh transform of the
// signal. Collecting every series cost ~2.3 MiB per call at 16
// templates; the bound is well under that, and a bank three times
// larger allocates about the same.
func TestMatchedFilterAllocBound(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	sig := inspiralStretch(16384)
	small := processAlloc(t, 16, sig)
	const bound = 384 << 10
	if small > bound {
		t.Errorf("Process on a 16×2048 bank allocates %d B per call, bound %d", small, bound)
	}
	large := processAlloc(t, 48, sig)
	if large > small+32<<10 {
		t.Errorf("Process allocates %d B per call on 48 templates against %d on 16: it grows with the bank", large, small)
	}
}
