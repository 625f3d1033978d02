package dsp

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
)

// An fftPlan holds everything a power-of-two transform of length n needs
// beyond the data itself: the bit-reversal permutation and the first half
// of the complex roots of unity. The E2 inspiral search runs thousands of
// same-length transforms, so computing sines once per length instead of
// once per butterfly block is the dominant kernel win. Plans are
// immutable after construction and safe for concurrent use.
type fftPlan struct {
	n      int
	bitrev []int32      // bitrev[i] = bit-reversed index of i
	tw     []complex128 // tw[j] = exp(-2*pi*i*j/n), j < n/2 (forward roots)
}

func newFFTPlan(n int) *fftPlan {
	p := &fftPlan{n: n, bitrev: make([]int32, n), tw: make([]complex128, n/2)}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		p.bitrev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	for j := 0; j < n/2; j++ {
		theta := -2 * math.Pi * float64(j) / float64(n)
		p.tw[j] = complex(math.Cos(theta), math.Sin(theta))
	}
	return p
}

// execute runs the iterative radix-2 kernel over x (len(x) == p.n). The
// inverse transform conjugates the cached forward roots on the fly and,
// like the old radix2, does NOT apply the 1/n normalisation — IFFT does.
func (p *fftPlan) execute(x []complex128, inverse bool) {
	n := p.n
	for i, j := range p.bitrev {
		if int(j) > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		stride := n / size
		for start := 0; start < n; start += size {
			ti := 0
			for k := 0; k < half; k++ {
				w := p.tw[ti]
				if inverse {
					w = complex(real(w), -imag(w))
				}
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				ti += stride
			}
		}
	}
}

// maxFFTPlans bounds the radix-2 plan cache. A plan for n = 2^18 holds
// ~3 MiB of tables; eight plans cover every length a realistic workflow
// mixes while keeping the worst case ~25 MiB.
const maxFFTPlans = 8

var fftPlans = struct {
	sync.Mutex
	byN   map[int]*fftPlan
	order []int // LRU order: least recently used first
}{byN: make(map[int]*fftPlan)}

// planFor returns the cached plan for power-of-two length n, building and
// caching it (with LRU eviction) on first use.
func planFor(n int) *fftPlan {
	fftPlans.Lock()
	defer fftPlans.Unlock()
	if p, ok := fftPlans.byN[n]; ok {
		touchLRU(&fftPlans.order, n)
		return p
	}
	p := newFFTPlan(n)
	if len(fftPlans.byN) >= maxFFTPlans {
		oldest := fftPlans.order[0]
		fftPlans.order = fftPlans.order[1:]
		delete(fftPlans.byN, oldest)
	}
	fftPlans.byN[n] = p
	fftPlans.order = append(fftPlans.order, n)
	return p
}

func touchLRU(order *[]int, n int) {
	for i, v := range *order {
		if v == n {
			*order = append(append((*order)[:i:i], (*order)[i+1:]...), n)
			return
		}
	}
}

// A bluesteinPlan caches the length-dependent constants of the chirp-z
// transform: the chirp factors and — the expensive part — the forward
// FFT of the padded conjugate-chirp kernel, which the old code recomputed
// on every call.
type bluesteinPlan struct {
	n, m int
	w    []complex128 // chirp factors exp(sign*i*pi*k^2/n)
	bfft []complex128 // FFT of the padded conj-chirp kernel
}

type bluesteinKey struct {
	n       int
	inverse bool
}

const maxBluesteinPlans = 4

var bluesteinPlans = struct {
	sync.Mutex
	byKey map[bluesteinKey]*bluesteinPlan
	order []bluesteinKey
}{byKey: make(map[bluesteinKey]*bluesteinPlan)}

func bluesteinPlanFor(n int, inverse bool) *bluesteinPlan {
	key := bluesteinKey{n, inverse}
	bluesteinPlans.Lock()
	if p, ok := bluesteinPlans.byKey[key]; ok {
		for i, v := range bluesteinPlans.order {
			if v == key {
				bluesteinPlans.order = append(
					append(bluesteinPlans.order[:i:i], bluesteinPlans.order[i+1:]...), key)
				break
			}
		}
		bluesteinPlans.Unlock()
		return p
	}
	bluesteinPlans.Unlock()

	// Build outside the lock: kernel FFT of a large plan is slow and
	// building the same plan twice on a race is merely wasted work.
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	p := &bluesteinPlan{n: n, w: make([]complex128, n)}
	for k := 0; k < n; k++ {
		// k^2 mod 2n avoids precision loss for large k.
		kk := (int64(k) * int64(k)) % int64(2*n)
		theta := sign * math.Pi * float64(kk) / float64(n)
		p.w[k] = complex(math.Cos(theta), math.Sin(theta))
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	p.m = m
	p.bfft = make([]complex128, m)
	for k := 0; k < n; k++ {
		bk := complex(real(p.w[k]), -imag(p.w[k])) // conj
		p.bfft[k] = bk
		if k > 0 {
			p.bfft[m-k] = bk
		}
	}
	planFor(m).execute(p.bfft, false)

	bluesteinPlans.Lock()
	defer bluesteinPlans.Unlock()
	if q, ok := bluesteinPlans.byKey[key]; ok {
		// A racing goroutine built the same plan first and already
		// registered it in map and LRU order; inserting ours too would
		// leave a duplicate order entry that drifts from the map. Ours
		// was merely wasted work — use theirs.
		return q
	}
	if len(bluesteinPlans.byKey) >= maxBluesteinPlans {
		oldest := bluesteinPlans.order[0]
		bluesteinPlans.order = bluesteinPlans.order[1:]
		delete(bluesteinPlans.byKey, oldest)
	}
	bluesteinPlans.byKey[key] = p
	bluesteinPlans.order = append(bluesteinPlans.order, key)
	return p
}

// A workspace is the scratch one borrower needs: a complex work array
// and a real series. A bank run borrows one for the signal's shared
// transform and one per worker (which inverts into c and hands its
// series to the visitor from r); a Bluestein transform borrows one for
// its padded convolution. Both arrays grow to the largest length seen.
//
// workspaces is a bounded free list, not a sync.Pool: a pool sheds a
// GC-timing-dependent share of its entries at every collection, so the
// live heap after the same work moved by whole slabs from run to run.
// The list keeps up to maxWorkspaces entries for the life of the
// process; a borrow beyond them allocates, and its workspace is dropped
// on return when the list is full. It is a stack, so a run borrows the
// workspaces the last run returned, already grown to its lengths, and
// the entries a burst of concurrent runs left behind stay untouched.
type workspace struct {
	c []complex128
	r []float64
}

const maxWorkspaces = 8

var workspaces = struct {
	sync.Mutex
	free []*workspace
}{free: make([]*workspace, 0, maxWorkspaces)}

// getWorkspace borrows a workspace whose complex array is n zeros.
func getWorkspace(n int) *workspace {
	var w *workspace
	workspaces.Lock()
	if k := len(workspaces.free); k > 0 {
		w = workspaces.free[k-1]
		workspaces.free = workspaces.free[:k-1]
	}
	workspaces.Unlock()
	if w == nil {
		w = new(workspace)
	}
	if cap(w.c) < n {
		w.c = make([]complex128, n)
	}
	w.c = w.c[:n]
	clear(w.c)
	return w
}

// series returns the workspace's real array at length n, unzeroed.
func (w *workspace) series(n int) []float64 {
	if cap(w.r) < n {
		w.r = make([]float64, n)
	}
	return w.r[:n]
}

func putWorkspace(w *workspace) {
	workspaces.Lock()
	if len(workspaces.free) < maxWorkspaces {
		workspaces.free = append(workspaces.free, w)
	}
	workspaces.Unlock()
}

// CrossCorrelateBank correlates one signal against every template in the
// bank and returns every series: out[i] corresponds to bank[i] and
// matches CrossCorrelate(x, bank[i]) up to rounding. It collects what
// CrossCorrelateEach visits, so it holds the whole bank's output at
// once; a caller that reduces each series should use Each instead.
func CrossCorrelateBank(ctx context.Context, x []float64, bank [][]float64) ([][]float64, error) {
	out := make([][]float64, len(bank))
	err := CrossCorrelateEach(ctx, x, bank, func(i int, corr []float64) {
		out[i] = slices.Clone(corr)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CrossCorrelateEach correlates one signal against every template in the
// bank, sharing the signal's FFT across all of them and fanning the
// work across GOMAXPROCS workers. This is the §3.6.2 matched filter
// inner loop: one detector stretch, hundreds of inspiral templates.
// Each worker inverts into its own scratch and hands template i's
// series to visit(i, corr), once per template, from the worker that
// computed it: visits run concurrently and in no fixed order, and corr
// is the worker's buffer, valid only for the call. The values are
// those CrossCorrelateBank returns, bit for bit, whatever GOMAXPROCS
// is. Cancellation is checked between template pairs, so engine
// shutdown interrupts a long bank run and Each returns ctx.Err(); a nil
// ctx never cancels.
//
// Three facts keep the work small. The transforms run at
// m = NextPow2(len(x)), not at the full linear length: a circular
// correlation at any m >= len(x) wraps only into the lags outside
// [len(h)-1, len(x)-1], and those are exactly the lags Each discards.
// Templates and signal are real, so templates 2k and 2k+1 share one
// transform as its real and imaginary parts; after the product with
// the signal's spectrum, one inverse holds template 2k's series in its
// real part and template 2k+1's in its imaginary part. And every array
// is borrowed from the workspaces list, so a run allocates only its
// goroutines and keeps nothing.
func CrossCorrelateEach(ctx context.Context, x []float64, bank [][]float64, visit func(i int, corr []float64)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(x) == 0 {
		return fmt.Errorf("dsp: empty signal to correlate against a bank")
	}
	for i, h := range bank {
		if len(h) == 0 {
			return fmt.Errorf("dsp: empty template %d in bank", i)
		}
		if len(h) > len(x) {
			return fmt.Errorf("dsp: template %d length %d exceeds signal length %d",
				i, len(h), len(x))
		}
	}
	if len(bank) == 0 {
		return nil
	}
	m := NextPow2(len(x))
	p := planFor(m)
	sig := getWorkspace(m)
	defer putWorkspace(sig)
	fx := sig.c
	for i, v := range x {
		fx[i] = complex(v, 0)
	}
	p.execute(fx, false)

	pairs := (len(bank) + 1) / 2
	workers := min(runtime.GOMAXPROCS(0), pairs)
	idx := make(chan int)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := getWorkspace(m)
			defer putWorkspace(ws)
			scratch := ws.c
			series := ws.series(len(x))
			inv := 1 / float64(m)
			for k := range idx {
				if ctx.Err() != nil {
					continue // drain the feed; the run is abandoned
				}
				lo, hi := 2*k, min(2*k+2, len(bank))
				clear(scratch)
				for j, v := range bank[lo] {
					scratch[len(bank[lo])-1-j] = complex(v, 0) // reversed template
				}
				if hi-lo == 2 {
					h := bank[lo+1]
					for j, v := range h {
						scratch[len(h)-1-j] += complex(0, v)
					}
				}
				p.execute(scratch, false)
				for j := range scratch {
					scratch[j] *= fx[j]
				}
				p.execute(scratch, true)
				for i := lo; i < hi; i++ {
					off := len(bank[i]) - 1
					corr := series[:len(x)-off]
					if i == lo {
						for l := range corr {
							corr[l] = real(scratch[off+l]) * inv
						}
					} else {
						for l := range corr {
							corr[l] = imag(scratch[off+l]) * inv
						}
					}
					visit(i, corr)
				}
			}
		}()
	}
feed:
	for k := range pairs {
		select {
		case idx <- k:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	return ctx.Err()
}
