package types

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"consumergrid/internal/frame"
)

// Registered type names for the numeric family. The dotted style follows
// the Triana class names that appear in the paper's Code Segment 1
// ("triana.types.SampleSet").
const (
	NameVec             = "triana.types.VectorType"
	NameConst           = "triana.types.Const"
	NameSampleSet       = "triana.types.SampleSet"
	NameSpectrum        = "triana.types.Spectrum"
	NameComplexSpectrum = "triana.types.ComplexSpectrum"
	NameMatrix          = "triana.types.MatrixType"
	NameHistogram       = "triana.types.Histogram"
)

func init() {
	Register(NameVec, "", decodeVec)
	Register(NameConst, "", decodeConst)
	Register(NameSampleSet, NameVec, decodeSampleSet)
	Register(NameSpectrum, NameVec, decodeSpectrum)
	Register(NameComplexSpectrum, "", decodeComplexSpectrum)
	Register(NameMatrix, "", decodeMatrix)
	Register(NameHistogram, NameVec, decodeHistogram)
}

// Vec is a plain one-dimensional vector of float64 values, the root of the
// numeric subtype hierarchy: SampleSet, Spectrum and Histogram are all
// assignable to an input that accepts Vec.
type Vec struct {
	sealable
	Values []float64
}

// NewVec returns a Vec wrapping a copy of xs.
func NewVec(xs []float64) *Vec {
	v := &Vec{Values: make([]float64, len(xs))}
	copy(v.Values, xs)
	return v
}

func (v *Vec) TypeName() string { return NameVec }

func (v *Vec) Clone() Data {
	c := &Vec{Values: make([]float64, len(v.Values))}
	copy(c.Values, v.Values)
	return c
}

// Len reports the number of elements.
func (v *Vec) Len() int { return len(v.Values) }

// Sum returns the sum of all elements.
func (v *Vec) Sum() float64 {
	var s float64
	for _, x := range v.Values {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean, or 0 for an empty vector.
func (v *Vec) Mean() float64 {
	if len(v.Values) == 0 {
		return 0
	}
	return v.Sum() / float64(len(v.Values))
}

func (v *Vec) encode(b []byte) ([]byte, error) { return frame.AppendFloat64s(b, v.Values), nil }

func (v *Vec) size() int { return frame.Float64sLen(v.Values) }

func decodeVec(r *frame.Reader) Data { return &Vec{Values: r.Float64s()} }

// Const is a single scalar value, used by parameter-producing units and by
// reductions (e.g. the verification stage of the database pipeline).
type Const struct {
	sealable
	Value float64
}

func (c *Const) TypeName() string { return NameConst }
func (c *Const) Clone() Data      { return &Const{Value: c.Value} }

func (c *Const) encode(b []byte) ([]byte, error) { return frame.AppendFloat64(b, c.Value), nil }

func (c *Const) size() int { return 8 }

func decodeConst(r *frame.Reader) Data { return &Const{Value: r.Float64()} }

// SampleSet is a uniformly-sampled time series: the payload of the paper's
// Figure 1 workflow and of the GEO600 inspiral scenario (2000 samples/s,
// 900 s chunks).
type SampleSet struct {
	sealable
	// SamplingRate in samples per second; must be > 0 for a well-formed set.
	SamplingRate float64
	// Start is the time offset of the first sample, in seconds, relative
	// to the stream epoch. It lets chunked streams (E2) retain alignment.
	Start float64
	// Samples holds the sample values.
	Samples []float64
}

// NewSampleSet returns a SampleSet with the given rate, copying samples.
func NewSampleSet(rate float64, samples []float64) *SampleSet {
	s := &SampleSet{SamplingRate: rate, Samples: make([]float64, len(samples))}
	copy(s.Samples, samples)
	return s
}

func (s *SampleSet) TypeName() string { return NameSampleSet }

func (s *SampleSet) Clone() Data {
	c := &SampleSet{SamplingRate: s.SamplingRate, Start: s.Start,
		Samples: make([]float64, len(s.Samples))}
	copy(c.Samples, s.Samples)
	return c
}

// Duration reports the time span covered by the samples, in seconds.
func (s *SampleSet) Duration() float64 {
	if s.SamplingRate <= 0 {
		return 0
	}
	return float64(len(s.Samples)) / s.SamplingRate
}

// RMS returns the root-mean-square amplitude.
func (s *SampleSet) RMS() float64 {
	if len(s.Samples) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.Samples {
		sum += x * x
	}
	return math.Sqrt(sum / float64(len(s.Samples)))
}

func (s *SampleSet) encode(b []byte) ([]byte, error) {
	b = frame.AppendFloat64(frame.AppendFloat64(b, s.SamplingRate), s.Start)
	return frame.AppendFloat64s(b, s.Samples), nil
}

func (s *SampleSet) size() int { return 16 + frame.Float64sLen(s.Samples) }

func decodeSampleSet(r *frame.Reader) Data {
	return &SampleSet{SamplingRate: r.Float64(), Start: r.Float64(), Samples: r.Float64s()}
}

// Spectrum is a one-sided real power (or amplitude) spectrum with uniform
// frequency resolution.
type Spectrum struct {
	sealable
	// Resolution is the width of one bin in Hz.
	Resolution float64
	// Amplitudes holds one value per frequency bin, bin i covering
	// [i*Resolution, (i+1)*Resolution).
	Amplitudes []float64
}

func (s *Spectrum) TypeName() string { return NameSpectrum }

func (s *Spectrum) Clone() Data {
	c := &Spectrum{Resolution: s.Resolution,
		Amplitudes: make([]float64, len(s.Amplitudes))}
	copy(c.Amplitudes, s.Amplitudes)
	return c
}

// PeakBin returns the index and value of the largest amplitude, or (-1, 0)
// for an empty spectrum.
func (s *Spectrum) PeakBin() (int, float64) {
	best, bestV := -1, math.Inf(-1)
	for i, a := range s.Amplitudes {
		if a > bestV {
			best, bestV = i, a
		}
	}
	if best == -1 {
		return -1, 0
	}
	return best, bestV
}

// PeakFrequency returns the centre frequency of the peak bin.
func (s *Spectrum) PeakFrequency() float64 {
	i, _ := s.PeakBin()
	if i < 0 {
		return 0
	}
	return (float64(i) + 0.5) * s.Resolution
}

func (s *Spectrum) encode(b []byte) ([]byte, error) {
	return frame.AppendFloat64s(frame.AppendFloat64(b, s.Resolution), s.Amplitudes), nil
}

func (s *Spectrum) size() int { return 8 + frame.Float64sLen(s.Amplitudes) }

func decodeSpectrum(r *frame.Reader) Data {
	return &Spectrum{Resolution: r.Float64(), Amplitudes: r.Float64s()}
}

// ComplexSpectrum is a full complex FFT result, kept in split re/im form so
// the wire codec stays simple and SIMD-friendly.
type ComplexSpectrum struct {
	sealable
	// Resolution is the width of one bin in Hz.
	Resolution float64
	Re, Im     []float64
}

func (s *ComplexSpectrum) TypeName() string { return NameComplexSpectrum }

func (s *ComplexSpectrum) Clone() Data {
	c := &ComplexSpectrum{Resolution: s.Resolution,
		Re: make([]float64, len(s.Re)), Im: make([]float64, len(s.Im))}
	copy(c.Re, s.Re)
	copy(c.Im, s.Im)
	return c
}

// Len reports the number of bins.
func (s *ComplexSpectrum) Len() int { return len(s.Re) }

// At returns bin i as a complex128.
func (s *ComplexSpectrum) At(i int) complex128 {
	return complex(s.Re[i], s.Im[i])
}

// Abs returns the magnitude of bin i.
func (s *ComplexSpectrum) Abs(i int) float64 { return cmplx.Abs(s.At(i)) }

// Valid reports whether the re and im slices agree in length.
func (s *ComplexSpectrum) Valid() bool { return len(s.Re) == len(s.Im) }

var errReImMismatch = errors.New("types: ComplexSpectrum re/im length mismatch")

func (s *ComplexSpectrum) encode(b []byte) ([]byte, error) {
	if !s.Valid() {
		return nil, errReImMismatch
	}
	b = frame.AppendFloat64s(frame.AppendFloat64(b, s.Resolution), s.Re)
	return frame.AppendFloat64s(b, s.Im), nil
}

func (s *ComplexSpectrum) size() int { return 8 + frame.Float64sLen(s.Re) + frame.Float64sLen(s.Im) }

func decodeComplexSpectrum(r *frame.Reader) Data {
	s := &ComplexSpectrum{Resolution: r.Float64(), Re: r.Float64s(), Im: r.Float64s()}
	if !s.Valid() {
		r.Fail(errReImMismatch)
	}
	return s
}

// Matrix is a dense row-major matrix of float64 values.
type Matrix struct {
	sealable
	Rows, Cols int
	// Cells has length Rows*Cols, row-major.
	Cells []float64
}

// NewMatrix allocates a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("types: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Cells: make([]float64, rows*cols)}
}

func (m *Matrix) TypeName() string { return NameMatrix }

func (m *Matrix) Clone() Data {
	c := &Matrix{Rows: m.Rows, Cols: m.Cols, Cells: make([]float64, len(m.Cells))}
	copy(c.Cells, m.Cells)
	return c
}

// At returns the element at (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Cells[r*m.Cols+c] }

// Set assigns the element at (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Cells[r*m.Cols+c] = v }

// Valid reports whether the cell count matches the declared shape. A
// shape whose Rows*Cols overflows is never valid.
func (m *Matrix) Valid() bool { return shapeHolds(m.Rows, m.Cols, len(m.Cells)) }

func (m *Matrix) shapeErr() error {
	return fmt.Errorf("types: matrix shape %dx%d does not match %d cells", m.Rows, m.Cols, len(m.Cells))
}

func (m *Matrix) encode(b []byte) ([]byte, error) {
	if !m.Valid() {
		return nil, m.shapeErr()
	}
	b = frame.AppendUvarint(frame.AppendUvarint(b, uint64(m.Rows)), uint64(m.Cols))
	return frame.AppendFloat64s(b, m.Cells), nil
}

func (m *Matrix) size() int {
	return frame.UvarintLen(uint64(m.Rows)) + frame.UvarintLen(uint64(m.Cols)) + frame.Float64sLen(m.Cells)
}

func decodeMatrix(r *frame.Reader) Data {
	m := &Matrix{Rows: readInt(r), Cols: readInt(r), Cells: r.Float64s()}
	if r.Err() == nil && !m.Valid() {
		r.Fail(m.shapeErr())
	}
	return m
}

// Histogram is a binned distribution with uniform bin width, produced by
// statistics units and consumed by graphing/verification units.
type Histogram struct {
	sealable
	// Lo is the lower edge of the first bin; Width the width of each bin.
	Lo, Width float64
	Counts    []float64
}

func (h *Histogram) TypeName() string { return NameHistogram }

func (h *Histogram) Clone() Data {
	c := &Histogram{Lo: h.Lo, Width: h.Width, Counts: make([]float64, len(h.Counts))}
	copy(c.Counts, h.Counts)
	return c
}

// Total returns the sum of all bin counts.
func (h *Histogram) Total() float64 {
	var s float64
	for _, c := range h.Counts {
		s += c
	}
	return s
}

// Add accumulates value v into the appropriate bin; out-of-range values
// clamp to the first or last bin so nothing is silently dropped.
func (h *Histogram) Add(v float64) {
	if len(h.Counts) == 0 || h.Width <= 0 {
		return
	}
	i := int(math.Floor((v - h.Lo) / h.Width))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
}

func (h *Histogram) encode(b []byte) ([]byte, error) {
	b = frame.AppendFloat64(frame.AppendFloat64(b, h.Lo), h.Width)
	return frame.AppendFloat64s(b, h.Counts), nil
}

func (h *Histogram) size() int { return 16 + frame.Float64sLen(h.Counts) }

func decodeHistogram(r *frame.Reader) Data {
	return &Histogram{Lo: r.Float64(), Width: r.Float64(), Counts: r.Float64s()}
}
