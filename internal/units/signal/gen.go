// Package signal implements the Triana signal-processing toolbox: wave
// generation, noise contamination, FFTs, power spectra, spectrum
// averaging (AccumStat), windowing, decimation, chirp generation and
// matched filtering. These are the units behind the paper's Figure 1/2
// workflow and the §3.6.2 inspiral-search scenario.
package signal

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"consumergrid/internal/dsp"
	"consumergrid/internal/types"
	"consumergrid/internal/units"
)

// Unit names registered by this package.
const (
	NameWave          = "triana.signal.Wave"
	NameGaussianNoise = "triana.signal.GaussianNoise"
	NameFFT           = "triana.signal.FFT"
	NameInverseFFT    = "triana.signal.InverseFFT"
	NamePowerSpectrum = "triana.signal.PowerSpectrum"
	NameAccumStat     = "triana.signal.AccumStat"
	NameWindow        = "triana.signal.Window"
	NameDecimate      = "triana.signal.Decimate"
	NameChirpGen      = "triana.signal.ChirpGen"
	NameInjectChirp   = "triana.signal.InjectChirp"
	NameMatchedFilter = "triana.signal.MatchedFilter"
	NamePeakDetect    = "triana.signal.PeakDetect"
)

func init() {
	units.Register(units.Meta{
		Name:        NameWave,
		Description: "Generates a periodic waveform (sine/square/sawtooth/triangle) as a SampleSet; successive iterations continue the phase.",
		In:          0, Out: 1,
		OutTypes: []string{types.NameSampleSet},
		Params: []units.ParamSpec{
			{Name: "frequency", Default: "1000", Description: "waveform frequency in Hz"},
			{Name: "amplitude", Default: "1", Description: "peak amplitude"},
			{Name: "samplingRate", Default: "8000", Description: "samples per second"},
			{Name: "samples", Default: "1024", Description: "samples emitted per iteration"},
			{Name: "waveform", Default: "sine", Description: "sine|square|sawtooth|triangle"},
		},
		Stateful: true,
	}, func() units.Unit { return &Wave{} })

	units.Register(units.Meta{
		Name:        NameGaussianNoise,
		Description: "Contaminates a SampleSet with additive Gaussian noise of the given standard deviation.",
		In:          1, Out: 1,
		InTypes:  [][]string{{types.NameSampleSet}},
		OutTypes: []string{types.NameSampleSet},
		Params: []units.ParamSpec{
			{Name: "sigma", Default: "1", Description: "noise standard deviation"},
		},
	}, func() units.Unit { return &GaussianNoise{} })

	units.Register(units.Meta{
		Name:        NameFFT,
		Description: "Forward FFT of a SampleSet into a full ComplexSpectrum.",
		In:          1, Out: 1,
		InTypes:  [][]string{{types.NameSampleSet}},
		OutTypes: []string{types.NameComplexSpectrum},
	}, func() units.Unit { return &FFT{} })

	units.Register(units.Meta{
		Name:        NameInverseFFT,
		Description: "Inverse FFT of a ComplexSpectrum back into a SampleSet (real part).",
		In:          1, Out: 1,
		InTypes:  [][]string{{types.NameComplexSpectrum}},
		OutTypes: []string{types.NameSampleSet},
	}, func() units.Unit { return &InverseFFT{} })

	units.Register(units.Meta{
		Name:        NamePowerSpectrum,
		Description: "One-sided power spectrum of a SampleSet.",
		In:          1, Out: 1,
		InTypes:  [][]string{{types.NameSampleSet}},
		OutTypes: []string{types.NameSpectrum},
	}, func() units.Unit { return &PowerSpectrum{} })

	units.Register(units.Meta{
		Name:        NameAccumStat,
		Description: "Running mean of successive Spectra; the Figure 2 averaging unit that pulls a signal out of noise over ~20 iterations.",
		In:          1, Out: 1,
		InTypes:  [][]string{{types.NameSpectrum}},
		OutTypes: []string{types.NameSpectrum},
		Stateful: true,
	}, func() units.Unit { return &AccumStat{} })

	units.Register(units.Meta{
		Name:        NameWindow,
		Description: "Applies a window function (hann/hamming/blackman/rectangular) to a SampleSet.",
		In:          1, Out: 1,
		InTypes:  [][]string{{types.NameSampleSet}},
		OutTypes: []string{types.NameSampleSet},
		Params: []units.ParamSpec{
			{Name: "window", Default: "hann", Description: "rectangular|hann|hamming|blackman"},
		},
	}, func() units.Unit { return &Window{} })

	units.Register(units.Meta{
		Name:        NameDecimate,
		Description: "Reduces the sampling rate by an integer factor (the paper's 8 kHz to 2 kS/s reduction).",
		In:          1, Out: 1,
		InTypes:  [][]string{{types.NameSampleSet}},
		OutTypes: []string{types.NameSampleSet},
		Params: []units.ParamSpec{
			{Name: "factor", Default: "4", Description: "integer decimation factor"},
			{Name: "smooth", Default: "true", Description: "apply anti-alias averaging"},
		},
	}, func() units.Unit { return &Decimate{} })

	units.Register(units.Meta{
		Name:        NameChirpGen,
		Description: "Generates an inspiral-like chirp SampleSet sweeping from f0 to f1.",
		In:          0, Out: 1,
		OutTypes: []string{types.NameSampleSet},
		Params: []units.ParamSpec{
			{Name: "f0", Default: "50", Description: "start frequency (Hz)"},
			{Name: "f1", Default: "400", Description: "end frequency (Hz)"},
			{Name: "samplingRate", Default: "2000", Description: "samples per second"},
			{Name: "samples", Default: "2048", Description: "chirp length in samples"},
		},
	}, func() units.Unit { return &ChirpGen{} })

	units.Register(units.Meta{
		Name:        NameInjectChirp,
		Description: "Adds a scaled chirp into a SampleSet at a given offset, simulating a gravitational-wave event in detector noise.",
		In:          1, Out: 1,
		InTypes:  [][]string{{types.NameSampleSet}},
		OutTypes: []string{types.NameSampleSet},
		Params: []units.ParamSpec{
			{Name: "f0", Default: "50", Description: "chirp start frequency (Hz)"},
			{Name: "f1", Default: "400", Description: "chirp end frequency (Hz)"},
			{Name: "length", Default: "2048", Description: "chirp length in samples"},
			{Name: "offset", Default: "0", Description: "injection offset in samples"},
			{Name: "amplitude", Default: "1", Description: "injection scale"},
		},
	}, func() units.Unit { return &InjectChirp{} })

	units.Register(units.Meta{
		Name:        NameMatchedFilter,
		Description: "Correlates a SampleSet against a bank of chirp templates (the §3.6.2 fast correlation), reporting per-template peak lag and SNR.",
		In:          1, Out: 1,
		InTypes:  [][]string{{types.NameSampleSet}},
		OutTypes: []string{types.NameTable},
		Params: []units.ParamSpec{
			{Name: "templates", Default: "16", Description: "template bank size (paper: 5000-10000)"},
			{Name: "templateLen", Default: "2048", Description: "template length in samples"},
			{Name: "f0Lo", Default: "40", Description: "lowest template start frequency"},
			{Name: "f0Hi", Default: "200", Description: "highest template start frequency"},
			{Name: "f1", Default: "400", Description: "template end frequency"},
			{Name: "samplingRate", Default: "2000", Description: "template sampling rate"},
			{Name: "threshold", Default: "0", Description: "only report templates with SNR above this"},
		},
	}, func() units.Unit { return &MatchedFilter{} })

	units.Register(units.Meta{
		Name:        NamePeakDetect,
		Description: "Reports the peak frequency of a Spectrum as a Const.",
		In:          1, Out: 1,
		InTypes:  [][]string{{types.NameSpectrum}},
		OutTypes: []string{types.NameConst},
	}, func() units.Unit { return &PeakDetect{} })
}

// Wave is the Figure 1 source unit.
type Wave struct {
	freq, amp, rate float64
	samples         int
	form            dsp.Waveform
	emitted         int64 // samples emitted so far, for phase continuity
}

// Name implements Unit.
func (w *Wave) Name() string { return NameWave }

// Init implements Unit.
func (w *Wave) Init(p units.Params) error {
	var err error
	if w.freq, err = p.Float("frequency", 1000); err != nil {
		return err
	}
	if w.amp, err = p.Float("amplitude", 1); err != nil {
		return err
	}
	if w.rate, err = p.Float("samplingRate", 8000); err != nil {
		return err
	}
	if w.samples, err = p.Int("samples", 1024); err != nil {
		return err
	}
	if w.rate <= 0 || w.samples <= 0 {
		return fmt.Errorf("signal: Wave needs positive samplingRate and samples")
	}
	w.form = dsp.ParseWaveform(p.String("waveform", "sine"))
	return nil
}

// Process implements Unit.
func (w *Wave) Process(ctx *units.Context, in []types.Data) ([]types.Data, error) {
	if err := units.CheckArity(NameWave, 0, in); err != nil {
		return nil, err
	}
	start := float64(w.emitted) / w.rate
	xs := dsp.Generate(w.form, w.freq, w.amp, w.rate, w.samples, start)
	w.emitted += int64(w.samples)
	return []types.Data{&types.SampleSet{SamplingRate: w.rate, Start: start, Samples: xs}}, nil
}

// Reset implements Resettable.
func (w *Wave) Reset() { w.emitted = 0 }

// Checkpoint implements Checkpointable.
func (w *Wave) Checkpoint() ([]byte, error) {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(w.emitted))
	return b, nil
}

// Restore implements Checkpointable.
func (w *Wave) Restore(b []byte) error {
	if len(b) != 8 {
		return fmt.Errorf("signal: Wave checkpoint length %d", len(b))
	}
	w.emitted = int64(binary.LittleEndian.Uint64(b))
	return nil
}

// GaussianNoise contaminates its input, as in Figure 1.
type GaussianNoise struct {
	sigma float64
}

// Name implements Unit.
func (g *GaussianNoise) Name() string { return NameGaussianNoise }

// Init implements Unit.
func (g *GaussianNoise) Init(p units.Params) error {
	var err error
	if g.sigma, err = p.Float("sigma", 1); err != nil {
		return err
	}
	if g.sigma < 0 {
		return fmt.Errorf("signal: negative sigma %g", g.sigma)
	}
	return nil
}

// Process implements Unit.
func (g *GaussianNoise) Process(ctx *units.Context, in []types.Data) ([]types.Data, error) {
	if err := units.CheckArity(NameGaussianNoise, 1, in); err != nil {
		return nil, err
	}
	s, ok := in[0].(*types.SampleSet)
	if !ok {
		return nil, fmt.Errorf("signal: GaussianNoise got %s", in[0].TypeName())
	}
	out := &types.SampleSet{SamplingRate: s.SamplingRate, Start: s.Start,
		Samples: dsp.AddGaussianNoise(s.Samples, g.sigma, ctx.Rand())}
	return []types.Data{out}, nil
}

// FFT transforms time to frequency domain.
type FFT struct{}

// Name implements Unit.
func (*FFT) Name() string { return NameFFT }

// Init implements Unit.
func (*FFT) Init(units.Params) error { return nil }

// Process implements Unit.
func (*FFT) Process(ctx *units.Context, in []types.Data) ([]types.Data, error) {
	if err := units.CheckArity(NameFFT, 1, in); err != nil {
		return nil, err
	}
	s, ok := in[0].(*types.SampleSet)
	if !ok {
		return nil, fmt.Errorf("signal: FFT got %s", in[0].TypeName())
	}
	c := dsp.FFTReal(s.Samples)
	out := &types.ComplexSpectrum{
		Re: make([]float64, len(c)), Im: make([]float64, len(c)),
	}
	if n := len(s.Samples); n > 0 && s.SamplingRate > 0 {
		out.Resolution = s.SamplingRate / float64(n)
	}
	for i, v := range c {
		out.Re[i], out.Im[i] = real(v), imag(v)
	}
	return []types.Data{out}, nil
}

// InverseFFT transforms back to the time domain.
type InverseFFT struct{}

// Name implements Unit.
func (*InverseFFT) Name() string { return NameInverseFFT }

// Init implements Unit.
func (*InverseFFT) Init(units.Params) error { return nil }

// Process implements Unit.
func (*InverseFFT) Process(ctx *units.Context, in []types.Data) ([]types.Data, error) {
	if err := units.CheckArity(NameInverseFFT, 1, in); err != nil {
		return nil, err
	}
	c, ok := in[0].(*types.ComplexSpectrum)
	if !ok {
		return nil, fmt.Errorf("signal: InverseFFT got %s", in[0].TypeName())
	}
	if !c.Valid() {
		return nil, fmt.Errorf("signal: InverseFFT got invalid spectrum")
	}
	buf := make([]complex128, c.Len())
	for i := range buf {
		buf[i] = complex(c.Re[i], c.Im[i])
	}
	dsp.IFFT(buf)
	out := &types.SampleSet{Samples: make([]float64, len(buf))}
	if c.Resolution > 0 {
		out.SamplingRate = c.Resolution * float64(len(buf))
	}
	for i, v := range buf {
		out.Samples[i] = real(v)
	}
	return []types.Data{out}, nil
}

// PowerSpectrum computes the one-sided power spectrum.
type PowerSpectrum struct{}

// Name implements Unit.
func (*PowerSpectrum) Name() string { return NamePowerSpectrum }

// Init implements Unit.
func (*PowerSpectrum) Init(units.Params) error { return nil }

// Process implements Unit.
func (*PowerSpectrum) Process(ctx *units.Context, in []types.Data) ([]types.Data, error) {
	if err := units.CheckArity(NamePowerSpectrum, 1, in); err != nil {
		return nil, err
	}
	s, ok := in[0].(*types.SampleSet)
	if !ok {
		return nil, fmt.Errorf("signal: PowerSpectrum got %s", in[0].TypeName())
	}
	ps := dsp.PowerSpectrum(s.Samples)
	out := &types.Spectrum{Amplitudes: ps}
	if n := len(s.Samples); n > 0 && s.SamplingRate > 0 {
		out.Resolution = s.SamplingRate / float64(n)
	}
	return []types.Data{out}, nil
}

// AccumStat is the paper's spectrum-averaging unit: Figure 2 shows its
// output after 1 and after 20 iterations.
type AccumStat struct {
	sum   []float64
	res   float64
	count int
}

// Name implements Unit.
func (a *AccumStat) Name() string { return NameAccumStat }

// Init implements Unit.
func (a *AccumStat) Init(units.Params) error { return nil }

// Process implements Unit.
func (a *AccumStat) Process(ctx *units.Context, in []types.Data) ([]types.Data, error) {
	if err := units.CheckArity(NameAccumStat, 1, in); err != nil {
		return nil, err
	}
	s, ok := in[0].(*types.Spectrum)
	if !ok {
		return nil, fmt.Errorf("signal: AccumStat got %s", in[0].TypeName())
	}
	if a.sum == nil {
		a.sum = make([]float64, len(s.Amplitudes))
		a.res = s.Resolution
	}
	if len(s.Amplitudes) != len(a.sum) {
		return nil, fmt.Errorf("signal: AccumStat spectrum length changed %d -> %d",
			len(a.sum), len(s.Amplitudes))
	}
	for i, v := range s.Amplitudes {
		a.sum[i] += v
	}
	a.count++
	out := &types.Spectrum{Resolution: a.res, Amplitudes: make([]float64, len(a.sum))}
	inv := 1 / float64(a.count)
	for i, v := range a.sum {
		out.Amplitudes[i] = v * inv
	}
	return []types.Data{out}, nil
}

// Reset implements Resettable.
func (a *AccumStat) Reset() {
	a.sum = nil
	a.count = 0
	a.res = 0
}

// Checkpoint implements Checkpointable.
func (a *AccumStat) Checkpoint() ([]byte, error) {
	spec := &types.Spectrum{Resolution: a.res, Amplitudes: a.sum}
	body, err := types.Marshal(spec)
	if err != nil {
		return nil, err
	}
	head := make([]byte, 8)
	binary.LittleEndian.PutUint64(head, uint64(a.count))
	return append(head, body...), nil
}

// Restore implements Checkpointable.
func (a *AccumStat) Restore(b []byte) error {
	if len(b) < 8 {
		return fmt.Errorf("signal: AccumStat checkpoint too short")
	}
	count := int(binary.LittleEndian.Uint64(b[:8]))
	d, err := types.Unmarshal(b[8:])
	if err != nil {
		return err
	}
	spec, ok := d.(*types.Spectrum)
	if !ok {
		return fmt.Errorf("signal: AccumStat checkpoint holds %s", d.TypeName())
	}
	a.count = count
	a.res = spec.Resolution
	a.sum = spec.Amplitudes
	if len(a.sum) == 0 {
		a.sum = nil
	}
	return nil
}

// Count reports how many spectra have been accumulated.
func (a *AccumStat) Count() int { return a.count }

// Window applies a window function.
type Window struct {
	win dsp.Window
}

// Name implements Unit.
func (w *Window) Name() string { return NameWindow }

// Init implements Unit.
func (w *Window) Init(p units.Params) error {
	w.win = dsp.ParseWindow(p.String("window", "hann"))
	return nil
}

// Process implements Unit.
func (w *Window) Process(ctx *units.Context, in []types.Data) ([]types.Data, error) {
	if err := units.CheckArity(NameWindow, 1, in); err != nil {
		return nil, err
	}
	s, ok := in[0].(*types.SampleSet)
	if !ok {
		return nil, fmt.Errorf("signal: Window got %s", in[0].TypeName())
	}
	out := types.Mutable(s).(*types.SampleSet)
	w.win.Apply(out.Samples)
	return []types.Data{out}, nil
}

// Decimate reduces the sampling rate.
type Decimate struct {
	factor int
	smooth bool
}

// Name implements Unit.
func (d *Decimate) Name() string { return NameDecimate }

// Init implements Unit.
func (d *Decimate) Init(p units.Params) error {
	var err error
	if d.factor, err = p.Int("factor", 4); err != nil {
		return err
	}
	if d.factor < 1 {
		return fmt.Errorf("signal: decimation factor %d < 1", d.factor)
	}
	if d.smooth, err = p.Bool("smooth", true); err != nil {
		return err
	}
	return nil
}

// Process implements Unit.
func (d *Decimate) Process(ctx *units.Context, in []types.Data) ([]types.Data, error) {
	if err := units.CheckArity(NameDecimate, 1, in); err != nil {
		return nil, err
	}
	s, ok := in[0].(*types.SampleSet)
	if !ok {
		return nil, fmt.Errorf("signal: Decimate got %s", in[0].TypeName())
	}
	out := &types.SampleSet{
		SamplingRate: s.SamplingRate / float64(d.factor),
		Start:        s.Start,
		Samples:      dsp.Decimate(s.Samples, d.factor, d.smooth),
	}
	return []types.Data{out}, nil
}

// ChirpGen generates inspiral chirps.
type ChirpGen struct {
	f0, f1, rate float64
	samples      int
}

// Name implements Unit.
func (c *ChirpGen) Name() string { return NameChirpGen }

// Init implements Unit.
func (c *ChirpGen) Init(p units.Params) error {
	var err error
	if c.f0, err = p.Float("f0", 50); err != nil {
		return err
	}
	if c.f1, err = p.Float("f1", 400); err != nil {
		return err
	}
	if c.rate, err = p.Float("samplingRate", 2000); err != nil {
		return err
	}
	if c.samples, err = p.Int("samples", 2048); err != nil {
		return err
	}
	if c.rate <= 0 || c.samples <= 0 {
		return fmt.Errorf("signal: ChirpGen needs positive rate and samples")
	}
	return nil
}

// Process implements Unit.
func (c *ChirpGen) Process(ctx *units.Context, in []types.Data) ([]types.Data, error) {
	if err := units.CheckArity(NameChirpGen, 0, in); err != nil {
		return nil, err
	}
	xs := dsp.Chirp(c.f0, c.f1, c.rate, c.samples)
	return []types.Data{&types.SampleSet{SamplingRate: c.rate, Samples: xs}}, nil
}

// InjectChirp adds a synthetic event into noise. The chirp depends only
// on Init's parameters and the stream's sampling rate, so it is built on
// the first item and kept for the job's later items at the same rate.
type InjectChirp struct {
	f0, f1, amp float64
	length      int
	offset      int

	chirp     []float64 // dsp.Chirp at chirpRate; nil until first built
	chirpRate float64
}

// Name implements Unit.
func (u *InjectChirp) Name() string { return NameInjectChirp }

// Init implements Unit.
func (u *InjectChirp) Init(p units.Params) error {
	var err error
	if u.f0, err = p.Float("f0", 50); err != nil {
		return err
	}
	if u.f1, err = p.Float("f1", 400); err != nil {
		return err
	}
	if u.amp, err = p.Float("amplitude", 1); err != nil {
		return err
	}
	if u.length, err = p.Int("length", 2048); err != nil {
		return err
	}
	if u.offset, err = p.Int("offset", 0); err != nil {
		return err
	}
	if u.length <= 0 || u.offset < 0 {
		return fmt.Errorf("signal: InjectChirp needs positive length, non-negative offset")
	}
	u.chirp = nil
	return nil
}

// Process implements Unit.
func (u *InjectChirp) Process(ctx *units.Context, in []types.Data) ([]types.Data, error) {
	if err := units.CheckArity(NameInjectChirp, 1, in); err != nil {
		return nil, err
	}
	s, ok := in[0].(*types.SampleSet)
	if !ok {
		return nil, fmt.Errorf("signal: InjectChirp got %s", in[0].TypeName())
	}
	if u.offset+u.length > len(s.Samples) {
		return nil, fmt.Errorf("signal: injection [%d,%d) exceeds %d samples",
			u.offset, u.offset+u.length, len(s.Samples))
	}
	if u.chirp == nil || u.chirpRate != s.SamplingRate {
		u.chirp, u.chirpRate = dsp.Chirp(u.f0, u.f1, s.SamplingRate, u.length), s.SamplingRate
	}
	out := types.Mutable(s).(*types.SampleSet)
	for i, v := range u.chirp {
		out.Samples[u.offset+i] += u.amp * v
	}
	return []types.Data{out}, nil
}

// MatchedFilter performs the §3.6.2 fast correlation against a template
// bank generated at Init ("The node initialises i.e. generates its
// templates (a trivial computational step) and then it performs fast
// correlation on the data set with each template").
type MatchedFilter struct {
	bank      [][]float64
	threshold float64
	f0Lo      float64
	f0Hi      float64
}

// Name implements Unit.
func (m *MatchedFilter) Name() string { return NameMatchedFilter }

// Init implements Unit.
func (m *MatchedFilter) Init(p units.Params) error {
	count, err := p.Int("templates", 16)
	if err != nil {
		return err
	}
	length, err := p.Int("templateLen", 2048)
	if err != nil {
		return err
	}
	f0Lo, err := p.Float("f0Lo", 40)
	if err != nil {
		return err
	}
	f0Hi, err := p.Float("f0Hi", 200)
	if err != nil {
		return err
	}
	f1, err := p.Float("f1", 400)
	if err != nil {
		return err
	}
	rate, err := p.Float("samplingRate", 2000)
	if err != nil {
		return err
	}
	if m.threshold, err = p.Float("threshold", 0); err != nil {
		return err
	}
	if count <= 0 || length <= 0 || rate <= 0 {
		return fmt.Errorf("signal: MatchedFilter needs positive templates, templateLen, samplingRate")
	}
	m.f0Lo, m.f0Hi = f0Lo, f0Hi
	m.bank = sharedBank(bankKey{count, length, f0Lo, f0Hi, f1, rate})
	return nil
}

// bankKey is every parameter dsp.TemplateBank reads.
type bankKey struct {
	count, length        int
	f0Lo, f0Hi, f1, rate float64
}

// banks memoises the last template bank built in this process. Every
// job of a search initialises its MatchedFilter with the same
// parameters, so a donor hosting many jobs builds the bank once; a
// different parameter set replaces the entry. A bank is never written
// after it is built, so every unit holding it shares it read-only.
var banks struct {
	sync.Mutex
	key  bankKey
	bank [][]float64
}

func sharedBank(k bankKey) [][]float64 {
	banks.Lock()
	defer banks.Unlock()
	if banks.bank == nil || banks.key != k {
		banks.key, banks.bank = k, dsp.TemplateBank(k.count, k.length, k.f0Lo, k.f0Hi, k.f1, k.rate)
	}
	return banks.bank
}

// Process implements Unit.
func (m *MatchedFilter) Process(ctx *units.Context, in []types.Data) ([]types.Data, error) {
	if err := units.CheckArity(NameMatchedFilter, 1, in); err != nil {
		return nil, err
	}
	s, ok := in[0].(*types.SampleSet)
	if !ok {
		return nil, fmt.Errorf("signal: MatchedFilter got %s", in[0].TypeName())
	}
	if ctx.Canceled() {
		return nil, ctx.Ctx.Err()
	}
	// The whole bank runs against one shared FFT of the signal, fanned
	// across cores. Each worker reduces the series it computed to the
	// two numbers the table keeps, so no series outlives its visit; the
	// table is built in template order afterwards. Passing the run
	// context keeps long bank runs cancelable between templates under
	// engine shutdown.
	type peak struct {
		lag int
		snr float64
	}
	peaks := make([]peak, len(m.bank))
	err := dsp.CrossCorrelateEach(ctx.Ctx, s.Samples, m.bank, func(i int, corr []float64) {
		lag, peakV := 0, 0.0
		for l, v := range corr {
			if a := math.Abs(v); a > peakV {
				lag, peakV = l, a
			}
		}
		peaks[i] = peak{lag, dsp.SNR(corr)}
	})
	if err != nil {
		return nil, fmt.Errorf("signal: %w", err)
	}
	tab := &types.Table{Columns: []string{"template", "f0", "peakLag", "snr"}}
	for i, pk := range peaks {
		if pk.snr < m.threshold {
			continue
		}
		frac := 0.0
		if len(m.bank) > 1 {
			frac = float64(i) / float64(len(m.bank)-1)
		}
		f0 := m.f0Lo + frac*(m.f0Hi-m.f0Lo)
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("%d", i),
			fmt.Sprintf("%.3f", f0),
			fmt.Sprintf("%d", pk.lag),
			fmt.Sprintf("%.4f", pk.snr),
		})
	}
	return []types.Data{tab}, nil
}

// BankSize reports the number of templates.
func (m *MatchedFilter) BankSize() int { return len(m.bank) }

// PeakDetect reduces a Spectrum to its peak frequency.
type PeakDetect struct{}

// Name implements Unit.
func (*PeakDetect) Name() string { return NamePeakDetect }

// Init implements Unit.
func (*PeakDetect) Init(units.Params) error { return nil }

// Process implements Unit.
func (*PeakDetect) Process(ctx *units.Context, in []types.Data) ([]types.Data, error) {
	if err := units.CheckArity(NamePeakDetect, 1, in); err != nil {
		return nil, err
	}
	s, ok := in[0].(*types.Spectrum)
	if !ok {
		return nil, fmt.Errorf("signal: PeakDetect got %s", in[0].TypeName())
	}
	return []types.Data{&types.Const{Value: s.PeakFrequency()}}, nil
}
