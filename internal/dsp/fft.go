// Package dsp provides the numerical signal-processing kernels used by the
// Triana signal units and the inspiral-search experiment (E2): FFTs,
// window functions, spectra, matched filtering and synthetic waveform
// generators. Everything is pure Go over float64/complex128 and
// deterministic given the caller's seeds.
package dsp

import (
	"fmt"
	"math/bits"
)

// FFT computes the in-place forward discrete Fourier transform of x.
// Power-of-two lengths use an iterative radix-2 Cooley–Tukey kernel;
// other lengths fall back to Bluestein's algorithm (via a padded
// power-of-two convolution), so any n >= 0 is accepted.
func FFT(x []complex128) {
	transform(x, false)
}

// IFFT computes the in-place inverse DFT of x, including the 1/n
// normalisation, so IFFT(FFT(x)) == x up to rounding.
func IFFT(x []complex128) {
	transform(x, true)
	n := float64(len(x))
	if n == 0 {
		return
	}
	inv := complex(1/n, 0)
	for i := range x {
		x[i] *= inv
	}
}

func transform(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	if n&(n-1) == 0 {
		// Power-of-two lengths run off a cached plan (bit-reversal table
		// + twiddle roots); see plan.go.
		planFor(n).execute(x, inverse)
		return
	}
	bluestein(x, inverse)
}

// bluestein converts an arbitrary-length DFT into a convolution of
// padded power-of-two length (chirp-z transform). The chirp factors and
// the kernel's FFT come from a cached plan; only the signal-dependent
// half of the convolution is computed per call, in a borrowed workspace.
func bluestein(x []complex128, inverse bool) {
	n := len(x)
	p := bluesteinPlanFor(n, inverse)
	rp := planFor(p.m)
	ws := getWorkspace(p.m)
	defer putWorkspace(ws)
	a := ws.c
	for k := 0; k < n; k++ {
		a[k] = x[k] * p.w[k]
	}
	rp.execute(a, false)
	for i := range a {
		a[i] *= p.bfft[i]
	}
	rp.execute(a, true)
	scale := complex(1/float64(p.m), 0)
	for k := 0; k < n; k++ {
		x[k] = a[k] * scale * p.w[k]
	}
}

// FFTReal transforms a real signal, returning the full complex spectrum
// (length n, conjugate-symmetric for real input).
func FFTReal(x []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	FFT(c)
	return c
}

// PowerSpectrum returns the one-sided power spectrum of a real signal:
// |X_k|^2 / n for k in [0, n/2]. For an empty input it returns nil.
func PowerSpectrum(x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	c := FFTReal(x)
	half := n/2 + 1
	out := make([]float64, half)
	for k := 0; k < half; k++ {
		re, im := real(c[k]), imag(c[k])
		p := (re*re + im*im) / float64(n)
		// Fold negative frequencies into the one-sided spectrum (except
		// DC and, for even n, Nyquist).
		if k != 0 && !(n%2 == 0 && k == n/2) {
			p *= 2
		}
		out[k] = p
	}
	return out
}

// NextPow2 returns the smallest power of two >= n (and >= 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << uint(bits.Len(uint(n-1)))
}

// Convolve returns the linear convolution of a and b (length
// len(a)+len(b)-1) computed via padded FFTs.
func Convolve(a, b []float64) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	n := len(a) + len(b) - 1
	m := NextPow2(n)
	fa := make([]complex128, m)
	fb := make([]complex128, m)
	for i, v := range a {
		fa[i] = complex(v, 0)
	}
	for i, v := range b {
		fb[i] = complex(v, 0)
	}
	FFT(fa)
	FFT(fb)
	for i := range fa {
		fa[i] *= fb[i]
	}
	IFFT(fa)
	out := make([]float64, n)
	for i := range out {
		out[i] = real(fa[i])
	}
	return out
}

// CrossCorrelate returns the sliding-window cross-correlation of signal x
// with template h at every lag in [0, len(x)-len(h)]:
//
//	out[l] = sum_j x[l+j] * h[j]
//
// computed in the frequency domain (the "fast correlation" of §3.6.2).
// It returns an error when the template is longer than the signal.
func CrossCorrelate(x, h []float64) ([]float64, error) {
	if len(h) == 0 || len(x) == 0 {
		return nil, fmt.Errorf("dsp: empty input to CrossCorrelate")
	}
	if len(h) > len(x) {
		return nil, fmt.Errorf("dsp: template length %d exceeds signal length %d", len(h), len(x))
	}
	// Correlation = convolution with reversed template.
	rev := make([]float64, len(h))
	for i, v := range h {
		rev[len(h)-1-i] = v
	}
	full := Convolve(x, rev)
	// Valid lags start at len(h)-1 in the full convolution.
	nOut := len(x) - len(h) + 1
	out := make([]float64, nOut)
	copy(out, full[len(h)-1:len(h)-1+nOut])
	return out, nil
}

// CrossCorrelateDirect is the O(n*m) reference implementation used by
// tests to validate CrossCorrelate.
func CrossCorrelateDirect(x, h []float64) []float64 {
	if len(h) == 0 || len(h) > len(x) {
		return nil
	}
	out := make([]float64, len(x)-len(h)+1)
	for l := range out {
		var s float64
		for j, hv := range h {
			s += x[l+j] * hv
		}
		out[l] = s
	}
	return out
}
