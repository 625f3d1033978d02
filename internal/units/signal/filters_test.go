package signal

import (
	"math"
	"testing"

	"consumergrid/internal/types"
	"consumergrid/internal/units"
)

// twoTone builds a 40 Hz + 400 Hz mixture at 2 kHz.
func twoTone(n int) *types.SampleSet {
	xs := make([]float64, n)
	for i := range xs {
		t := float64(i) / 2000
		xs[i] = math.Sin(2*math.Pi*40*t) + math.Sin(2*math.Pi*400*t)
	}
	return &types.SampleSet{SamplingRate: 2000, Samples: xs}
}

// toneResidual compares a filtered signal against a pure tone away from
// the edges.
func toneResidual(s *types.SampleSet, freq float64) float64 {
	var max float64
	for i := 200; i < len(s.Samples)-200; i++ {
		t := float64(i) / s.SamplingRate
		if e := math.Abs(s.Samples[i] - math.Sin(2*math.Pi*freq*t)); e > max {
			max = e
		}
	}
	return max
}

func TestLowPassKeepsSlowTone(t *testing.T) {
	u := mustNew(t, NameLowPass, units.Params{"cutoffHz": "120", "taps": "101"})
	out := run1(t, u, twoTone(2048)).(*types.SampleSet)
	if out.SamplingRate != 2000 || len(out.Samples) != 2048 {
		t.Fatalf("shape changed: rate=%g n=%d", out.SamplingRate, len(out.Samples))
	}
	if r := toneResidual(out, 40); r > 0.06 {
		t.Errorf("low-pass residual vs 40 Hz tone = %g", r)
	}
}

func TestHighPassKeepsFastTone(t *testing.T) {
	u := mustNew(t, NameHighPass, units.Params{"cutoffHz": "120", "taps": "101"})
	out := run1(t, u, twoTone(2048)).(*types.SampleSet)
	if r := toneResidual(out, 400); r > 0.06 {
		t.Errorf("high-pass residual vs 400 Hz tone = %g", r)
	}
}

func TestDCBlockRemovesOffset(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 5 + math.Sin(float64(i))
	}
	out := run1(t, mustNew(t, NameDCBlock, nil),
		&types.SampleSet{SamplingRate: 100, Samples: xs}).(*types.SampleSet)
	var mean float64
	for _, v := range out.Samples {
		mean += v
	}
	mean /= float64(len(out.Samples))
	if math.Abs(mean) > 1e-9 {
		t.Errorf("mean after DC block = %g", mean)
	}
}

func TestSmoothReducesVariance(t *testing.T) {
	ctx := units.TestContext()
	noisy := make([]float64, 500)
	for i := range noisy {
		noisy[i] = ctx.Rand().NormFloat64()
	}
	out := run1(t, mustNew(t, NameSmooth, units.Params{"window": "9"}),
		&types.SampleSet{SamplingRate: 100, Samples: noisy}).(*types.SampleSet)
	variance := func(xs []float64) float64 {
		var m, s float64
		for _, v := range xs {
			m += v
		}
		m /= float64(len(xs))
		for _, v := range xs {
			s += (v - m) * (v - m)
		}
		return s / float64(len(xs))
	}
	if variance(out.Samples) > variance(noisy)/3 {
		t.Errorf("smoothing barely reduced variance: %g vs %g",
			variance(out.Samples), variance(noisy))
	}
}

func TestEnvelopeTracksAmplitude(t *testing.T) {
	// A 200 Hz tone whose amplitude ramps 0 -> 1: the envelope should
	// ramp too (scaled by the rectified-sine mean 2/pi).
	n := 2000
	xs := make([]float64, n)
	for i := range xs {
		t := float64(i) / 2000
		xs[i] = (float64(i) / float64(n)) * math.Sin(2*math.Pi*200*t)
	}
	out := run1(t, mustNew(t, NameEnvelope, units.Params{"window": "41"}),
		&types.SampleSet{SamplingRate: 2000, Samples: xs}).(*types.SampleSet)
	early := out.Samples[200]
	late := out.Samples[n-200]
	if late < 3*early || late < 0.3 {
		t.Errorf("envelope not tracking ramp: early=%g late=%g", early, late)
	}
}

func TestFilterValidation(t *testing.T) {
	if _, err := units.New(NameLowPass, units.Params{"cutoffHz": "-5"}); err == nil {
		t.Error("negative cutoff accepted")
	}
	if _, err := units.New(NameLowPass, units.Params{"taps": "1"}); err == nil {
		t.Error("tiny kernel accepted")
	}
	if _, err := units.New(NameSmooth, units.Params{"window": "0"}); err == nil {
		t.Error("zero window accepted")
	}
	// Cutoff above Nyquist fails at process time (depends on the stream).
	u := mustNew(t, NameLowPass, units.Params{"cutoffHz": "1500"})
	if _, err := u.Process(units.TestContext(),
		[]types.Data{&types.SampleSet{SamplingRate: 2000, Samples: make([]float64, 64)}}); err == nil {
		t.Error("cutoff >= Nyquist accepted")
	}
	// Rate-less stream fails for rate-dependent filters.
	if _, err := u.Process(units.TestContext(),
		[]types.Data{&types.SampleSet{Samples: make([]float64, 8)}}); err == nil {
		t.Error("rate-less stream accepted")
	}
	if _, err := u.Process(units.TestContext(), []types.Data{&types.Text{}}); err == nil {
		t.Error("Text accepted")
	}
}

func TestResampleUpAndDown(t *testing.T) {
	// A 100 Hz tone at 8 kHz downsampled to 2 kHz keeps its shape.
	src := twoToneAt(8000, 100, 2048)
	down := run1(t, mustNew(t, NameResample, units.Params{"targetRate": "2000"}), src).(*types.SampleSet)
	if down.SamplingRate != 2000 || len(down.Samples) != 512 {
		t.Fatalf("down = rate %g n %d", down.SamplingRate, len(down.Samples))
	}
	var maxErr float64
	for i := 10; i < len(down.Samples)-10; i++ {
		tSec := float64(i) / 2000
		want := math.Sin(2 * math.Pi * 100 * tSec)
		if e := math.Abs(down.Samples[i] - want); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.02 {
		t.Errorf("downsample residual = %g", maxErr)
	}
	// Upsample back and compare lengths/rate.
	up := run1(t, mustNew(t, NameResample, units.Params{"targetRate": "8000"}), down).(*types.SampleSet)
	if up.SamplingRate != 8000 || len(up.Samples) != 2048 {
		t.Fatalf("up = rate %g n %d", up.SamplingRate, len(up.Samples))
	}
	// Degenerate inputs.
	if _, err := units.New(NameResample, units.Params{"targetRate": "0"}); err == nil {
		t.Error("zero target rate accepted")
	}
	r := mustNew(t, NameResample, nil)
	if _, err := r.Process(units.TestContext(),
		[]types.Data{&types.SampleSet{Samples: []float64{1}}}); err == nil {
		t.Error("rate-less source accepted")
	}
	empty, err := r.Process(units.TestContext(),
		[]types.Data{&types.SampleSet{SamplingRate: 100}})
	if err != nil || len(empty[0].(*types.SampleSet).Samples) != 0 {
		t.Errorf("empty input: %v", err)
	}
}

// twoToneAt builds a single tone at the given rate (helper shared with
// the filter tests' two-tone builder).
func twoToneAt(rate, freq float64, n int) *types.SampleSet {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Sin(2 * math.Pi * freq * float64(i) / rate)
	}
	return &types.SampleSet{SamplingRate: rate, Samples: xs}
}
