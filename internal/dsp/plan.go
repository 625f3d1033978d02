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

// cscratch recycles the complex work arrays the Bluestein and
// correlation paths need: a bank run borrows one for the signal's
// shared transform and one per worker. Slabs grow to the largest length
// seen and are zeroed by the borrower. It is a bounded free list, not a
// sync.Pool: a pool sheds a GC-timing-dependent share of its slabs at
// every collection, so the live heap after the same work moved by whole
// 512 KiB correlation slabs from run to run. The list keeps up to
// maxCScratch slabs for the life of the process; a borrow beyond them
// allocates, and its slab is dropped on return when the list is full.
const maxCScratch = 8

var cscratch = make(chan *[]complex128, maxCScratch)

func getCScratch(n int) (*[]complex128, []complex128) {
	var sp *[]complex128
	select {
	case sp = <-cscratch:
	default:
		sp = new([]complex128)
	}
	if cap(*sp) < n {
		*sp = make([]complex128, n)
	}
	s := (*sp)[:n]
	for i := range s {
		s[i] = 0
	}
	return sp, s
}

func putCScratch(sp *[]complex128) {
	select {
	case cscratch <- sp:
	default:
	}
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
// per-template work across GOMAXPROCS workers. This is the §3.6.2
// matched filter inner loop: one detector stretch, hundreds of inspiral
// templates. Each worker inverts into its own scratch and hands
// template i's series to visit(i, corr), once per template, from the
// worker that computed it: visits run concurrently and in no fixed
// order, and corr is the worker's buffer, valid only for the call. The
// values are those CrossCorrelateBank returns, bit for bit. The signal's
// transform and the workers' complex work arrays are borrowed from the
// cscratch list, so a run allocates one real series per worker and
// keeps nothing. Cancellation is checked between templates, so engine
// shutdown interrupts a long bank run and Each returns ctx.Err(); a nil
// ctx never cancels.
func CrossCorrelateEach(ctx context.Context, x []float64, bank [][]float64, visit func(i int, corr []float64)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(x) == 0 {
		return fmt.Errorf("dsp: empty signal to correlate against a bank")
	}
	maxLen, minLen := 0, len(x)
	for i, h := range bank {
		if len(h) == 0 {
			return fmt.Errorf("dsp: empty template %d in bank", i)
		}
		if len(h) > len(x) {
			return fmt.Errorf("dsp: template %d length %d exceeds signal length %d",
				i, len(h), len(x))
		}
		maxLen = max(maxLen, len(h))
		minLen = min(minLen, len(h))
	}
	if len(bank) == 0 {
		return nil
	}
	// One padded length serves every template: padding a linear
	// convolution beyond its minimum length only appends zeros.
	m := NextPow2(len(x) + maxLen - 1)
	p := planFor(m)
	fxp, fx := getCScratch(m)
	defer putCScratch(fxp)
	for i, v := range x {
		fx[i] = complex(v, 0)
	}
	p.execute(fx, false)

	workers := runtime.GOMAXPROCS(0)
	if workers > len(bank) {
		workers = len(bank)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp, scratch := getCScratch(m)
			defer putCScratch(sp)
			series := make([]float64, len(x)-minLen+1)
			inv := 1 / float64(m)
			for i := range idx {
				if ctx.Err() != nil {
					continue // drain the feed; the run is abandoned
				}
				h := bank[i]
				for j := range scratch {
					scratch[j] = 0
				}
				for j, v := range h {
					scratch[len(h)-1-j] = complex(v, 0) // reversed template
				}
				p.execute(scratch, false)
				for j := range scratch {
					scratch[j] *= fx[j]
				}
				p.execute(scratch, true)
				corr := series[:len(x)-len(h)+1]
				off := len(h) - 1
				for l := range corr {
					corr[l] = real(scratch[off+l]) * inv
				}
				visit(i, corr)
			}
		}()
	}
feed:
	for i := range bank {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	return ctx.Err()
}
