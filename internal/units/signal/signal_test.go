package signal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strconv"
	"strings"
	"testing"

	"consumergrid/internal/types"
	"consumergrid/internal/units"
)

func mustNew(t *testing.T, name string, p units.Params) units.Unit {
	t.Helper()
	u, err := units.New(name, p)
	if err != nil {
		t.Fatalf("New(%s): %v", name, err)
	}
	return u
}

func run1(t *testing.T, u units.Unit, in ...types.Data) types.Data {
	t.Helper()
	out, err := u.Process(units.TestContext(), in)
	if err != nil {
		t.Fatalf("%s.Process: %v", u.Name(), err)
	}
	if len(out) != 1 {
		t.Fatalf("%s emitted %d outputs", u.Name(), len(out))
	}
	return out[0]
}

func TestWavePhaseContinuityAcrossIterations(t *testing.T) {
	u := mustNew(t, NameWave, units.Params{
		"frequency": "125", "samplingRate": "1000", "samples": "100"})
	ctx := units.TestContext()
	out1, err := u.Process(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := u.Process(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := out1[0].(*types.SampleSet)
	b := out2[0].(*types.SampleSet)
	if a.Start != 0 || math.Abs(b.Start-0.1) > 1e-12 {
		t.Errorf("starts = %g, %g", a.Start, b.Start)
	}
	// Continuity: b's first sample equals the sample that would follow a.
	want := math.Sin(2 * math.Pi * 125 * 0.1)
	if math.Abs(b.Samples[0]-want) > 1e-9 {
		t.Errorf("discontinuity: %g vs %g", b.Samples[0], want)
	}
}

func TestWaveResetAndCheckpoint(t *testing.T) {
	u := mustNew(t, NameWave, units.Params{"samples": "10", "samplingRate": "10"}).(*Wave)
	ctx := units.TestContext()
	u.Process(ctx, nil)
	u.Process(ctx, nil)
	cp, err := u.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	u.Reset()
	out, _ := u.Process(ctx, nil)
	if out[0].(*types.SampleSet).Start != 0 {
		t.Error("Reset did not restart phase")
	}
	if err := u.Restore(cp); err != nil {
		t.Fatal(err)
	}
	out, _ = u.Process(ctx, nil)
	if got := out[0].(*types.SampleSet).Start; math.Abs(got-2.0) > 1e-12 {
		t.Errorf("after restore Start = %g, want 2.0", got)
	}
	if err := u.Restore([]byte{1, 2}); err == nil {
		t.Error("short checkpoint accepted")
	}
}

func TestWaveInitValidation(t *testing.T) {
	if _, err := units.New(NameWave, units.Params{"samplingRate": "0"}); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := units.New(NameWave, units.Params{"samples": "-5"}); err == nil {
		t.Error("negative samples accepted")
	}
}

// TestGaussianNoiseGolden pins the noise stream of one task: three
// iterations for graph seed 42, task "Gaussian". Every experiment
// figure drawn from noise rests on this stream, so the digest may not
// move when the way the source is built does.
func TestGaussianNoiseGolden(t *testing.T) {
	const golden = "b65ce17c42ba53f79365ec5e90d2561ce8e6094914caa68a5b36af8908a923cd"
	u := mustNew(t, NameGaussianNoise, units.Params{"sigma": "2.5"})
	ctx := &units.Context{Seed: 42, TaskName: "Gaussian"}
	h := sha256.New()
	for iter := 0; iter < 3; iter++ {
		in := &types.SampleSet{SamplingRate: 64, Samples: make([]float64, 256)}
		for i := range in.Samples {
			in.Samples[i] = math.Sin(float64(iter*256+i) / 8)
		}
		out, err := u.Process(ctx, []types.Data{in})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range out[0].(*types.SampleSet).Samples {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != golden {
		t.Errorf("noise digest = %s, want %s", got, golden)
	}
}

func TestGaussianNoiseChangesSignalDeterministically(t *testing.T) {
	sig := types.NewSampleSet(1000, make([]float64, 500))
	u1 := mustNew(t, NameGaussianNoise, units.Params{"sigma": "2"})
	u2 := mustNew(t, NameGaussianNoise, units.Params{"sigma": "2"})
	out1 := run1(t, u1, sig).(*types.SampleSet)
	out2 := run1(t, u2, sig).(*types.SampleSet)
	if out1.RMS() < 1 {
		t.Errorf("noise RMS = %g, want ~2", out1.RMS())
	}
	for i := range out1.Samples {
		if out1.Samples[i] != out2.Samples[i] {
			t.Fatal("same seed produced different noise")
		}
	}
	if sig.RMS() != 0 {
		t.Error("input mutated")
	}
	if _, err := units.New(NameGaussianNoise, units.Params{"sigma": "-1"}); err == nil {
		t.Error("negative sigma accepted")
	}
	if _, err := u1.Process(units.TestContext(), []types.Data{&types.Text{}}); err == nil {
		t.Error("wrong input type accepted")
	}
}

func TestFFTInverseFFTRoundTrip(t *testing.T) {
	wave := mustNew(t, NameWave, units.Params{
		"frequency": "100", "samplingRate": "1024", "samples": "1024"})
	sig := run1(t, wave).(*types.SampleSet)
	spec := run1(t, mustNew(t, NameFFT, nil), sig).(*types.ComplexSpectrum)
	if spec.Len() != 1024 {
		t.Fatalf("spectrum bins = %d", spec.Len())
	}
	if math.Abs(spec.Resolution-1.0) > 1e-12 { // 1024 Hz / 1024 bins
		t.Errorf("resolution = %g", spec.Resolution)
	}
	back := run1(t, mustNew(t, NameInverseFFT, nil), spec).(*types.SampleSet)
	if math.Abs(back.SamplingRate-1024) > 1e-9 {
		t.Errorf("recovered rate = %g", back.SamplingRate)
	}
	for i := range sig.Samples {
		if math.Abs(back.Samples[i]-sig.Samples[i]) > 1e-9 {
			t.Fatalf("round trip diverges at %d", i)
		}
	}
	bad := &types.ComplexSpectrum{Re: []float64{1}, Im: []float64{}}
	if _, err := mustNew(t, NameInverseFFT, nil).Process(units.TestContext(), []types.Data{bad}); err == nil {
		t.Error("invalid spectrum accepted")
	}
}

func TestPowerSpectrumPeakMatchesWaveFrequency(t *testing.T) {
	wave := mustNew(t, NameWave, units.Params{
		"frequency": "1000", "samplingRate": "8000", "samples": "2048"})
	sig := run1(t, wave).(*types.SampleSet)
	ps := run1(t, mustNew(t, NamePowerSpectrum, nil), sig).(*types.Spectrum)
	if got := ps.PeakFrequency(); math.Abs(got-1000) > 2*ps.Resolution {
		t.Errorf("peak at %g Hz, want 1000", got)
	}
	peak := run1(t, mustNew(t, NamePeakDetect, nil), ps).(*types.Const)
	if math.Abs(peak.Value-ps.PeakFrequency()) > 1e-12 {
		t.Errorf("PeakDetect = %g", peak.Value)
	}
}

// TestAccumStatReproducesFigure2 is the F2 behaviour: averaging power
// spectra over N iterations improves spectral SNR roughly as sqrt(N).
func TestAccumStatReproducesFigure2(t *testing.T) {
	const rate, freq, n = 8000.0, 1000.0, 1024
	ctx := units.TestContext()
	wave := mustNew(t, NameWave, units.Params{
		"frequency": "1000", "samplingRate": "8000", "samples": "1024"})
	noise := mustNew(t, NameGaussianNoise, units.Params{"sigma": "5"})
	pspec := mustNew(t, NamePowerSpectrum, nil)
	accum := mustNew(t, NameAccumStat, nil).(*AccumStat)

	specSNR := func(s *types.Spectrum) float64 {
		peakBin := int(freq / rate * n)
		peak := s.Amplitudes[peakBin]
		var sum float64
		cnt := 0
		for i, v := range s.Amplitudes {
			if i < peakBin-2 || i > peakBin+2 {
				sum += v
				cnt++
			}
		}
		return peak / (sum / float64(cnt))
	}

	var snr1, snr20 float64
	for i := 0; i < 20; i++ {
		w, err := wave.Process(ctx, nil)
		if err != nil {
			t.Fatal(err)
		}
		ns, err := noise.Process(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := pspec.Process(ctx, ns)
		if err != nil {
			t.Fatal(err)
		}
		av, err := accum.Process(ctx, sp)
		if err != nil {
			t.Fatal(err)
		}
		got := specSNR(av[0].(*types.Spectrum))
		if i == 0 {
			snr1 = got
		}
		if i == 19 {
			snr20 = got
		}
	}
	if accum.Count() != 20 {
		t.Errorf("Count = %d", accum.Count())
	}
	// The peak-to-background ratio must improve materially with averaging;
	// the background variance drops ~sqrt(20) so the estimate stabilises
	// around the true ratio while single shots fluctuate wildly below it.
	if snr20 < snr1 {
		t.Errorf("averaging did not help: snr1=%g snr20=%g", snr1, snr20)
	}
	if snr20 < 5 {
		t.Errorf("signal not recovered: snr20 = %g", snr20)
	}
}

func TestAccumStatResetCheckpointRestore(t *testing.T) {
	ctx := units.TestContext()
	a := mustNew(t, NameAccumStat, nil).(*AccumStat)
	s1 := &types.Spectrum{Resolution: 2, Amplitudes: []float64{2, 4}}
	s2 := &types.Spectrum{Resolution: 2, Amplitudes: []float64{4, 8}}
	a.Process(ctx, []types.Data{s1})
	out, _ := a.Process(ctx, []types.Data{s2})
	got := out[0].(*types.Spectrum)
	if got.Amplitudes[0] != 3 || got.Amplitudes[1] != 6 {
		t.Fatalf("mean = %v", got.Amplitudes)
	}
	cp, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b := mustNew(t, NameAccumStat, nil).(*AccumStat)
	if err := b.Restore(cp); err != nil {
		t.Fatal(err)
	}
	out, _ = b.Process(ctx, []types.Data{&types.Spectrum{Resolution: 2, Amplitudes: []float64{6, 12}}})
	got = out[0].(*types.Spectrum)
	if got.Amplitudes[0] != 4 || got.Amplitudes[1] != 8 { // mean of 2,4,6 / 4,8,12
		t.Fatalf("restored mean = %v", got.Amplitudes)
	}
	a.Reset()
	if a.Count() != 0 {
		t.Error("Reset did not clear count")
	}
	// Length change is an error.
	a.Process(ctx, []types.Data{s1})
	if _, err := a.Process(ctx, []types.Data{&types.Spectrum{Amplitudes: []float64{1}}}); err == nil {
		t.Error("length change accepted")
	}
	if err := b.Restore([]byte{1}); err == nil {
		t.Error("short checkpoint accepted")
	}
}

func TestWindowUnit(t *testing.T) {
	// Sealed inputs must never be written in place: Window goes through
	// types.Mutable, which copies sealed data (an unsealed input would be
	// owned — and windowed — in place under the zero-copy contract).
	sig := types.Seal(types.NewSampleSet(100, []float64{1, 1, 1, 1, 1, 1, 1, 1, 1})).(*types.SampleSet)
	out := run1(t, mustNew(t, NameWindow, units.Params{"window": "hann"}), sig).(*types.SampleSet)
	if out.Samples[0] != 0 || out.Samples[8] != 0 {
		t.Error("hann endpoints nonzero")
	}
	if math.Abs(out.Samples[4]-1) > 1e-12 {
		t.Error("hann centre wrong")
	}
	if sig.Samples[0] != 1 {
		t.Error("input mutated")
	}
}

func TestDecimateUnit(t *testing.T) {
	sig := types.NewSampleSet(8000, make([]float64, 8000))
	out := run1(t, mustNew(t, NameDecimate, units.Params{"factor": "4"}), sig).(*types.SampleSet)
	if out.SamplingRate != 2000 || len(out.Samples) != 2000 {
		t.Errorf("decimated to rate=%g n=%d", out.SamplingRate, len(out.Samples))
	}
	if _, err := units.New(NameDecimate, units.Params{"factor": "0"}); err == nil {
		t.Error("factor 0 accepted")
	}
}

func TestChirpInjectAndMatchedFilterEndToEnd(t *testing.T) {
	// The §3.6.2 pipeline at laptop scale: noise chunk, injected chirp,
	// matched filter bank; the best-matching template must (a) be the one
	// whose f0 matches the injection and (b) locate the right offset.
	const rate = 2000.0
	ctx := units.TestContext()

	noiseSrc := mustNew(t, NameWave, units.Params{
		"frequency": "0", "amplitude": "0", "samplingRate": "2000", "samples": "16384"})
	zeros, _ := noiseSrc.Process(ctx, nil)
	gn := mustNew(t, NameGaussianNoise, units.Params{"sigma": "1"})
	noisy, _ := gn.Process(ctx, zeros)

	inj := mustNew(t, NameInjectChirp, units.Params{
		"f0": "120", "f1": "400", "length": "2048", "offset": "7000", "amplitude": "3"})
	injected, err := inj.Process(ctx, noisy)
	if err != nil {
		t.Fatal(err)
	}

	mf := mustNew(t, NameMatchedFilter, units.Params{
		"templates": "9", "templateLen": "2048",
		"f0Lo": "40", "f0Hi": "200", "f1": "400", "samplingRate": "2000"}).(*MatchedFilter)
	if mf.BankSize() != 9 {
		t.Fatalf("bank size %d", mf.BankSize())
	}
	out, err := mf.Process(ctx, injected)
	if err != nil {
		t.Fatal(err)
	}
	tab := out[0].(*types.Table)
	if tab.NumRows() != 9 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	snrCol := tab.ColumnIndex("snr")
	lagCol := tab.ColumnIndex("peakLag")
	f0Col := tab.ColumnIndex("f0")
	bestSNR, bestLag, bestF0 := 0.0, 0, 0.0
	for _, row := range tab.Rows {
		snr, _ := strconv.ParseFloat(row[snrCol], 64)
		if snr > bestSNR {
			bestSNR = snr
			bestLag, _ = strconv.Atoi(row[lagCol])
			bestF0, _ = strconv.ParseFloat(row[f0Col], 64)
		}
	}
	if bestSNR < 5 {
		t.Errorf("best SNR %g too low", bestSNR)
	}
	if bestLag != 7000 {
		t.Errorf("best lag %d, want 7000", bestLag)
	}
	if math.Abs(bestF0-120) > 21 { // nearest bank template to 120 Hz
		t.Errorf("best template f0 = %g, want ~120", bestF0)
	}
	_ = rate
}

func TestMatchedFilterThresholdFilters(t *testing.T) {
	ctx := units.TestContext()
	sig := types.NewSampleSet(2000, make([]float64, 4096))
	mf := mustNew(t, NameMatchedFilter, units.Params{
		"templates": "4", "templateLen": "512", "threshold": "1e9"})
	out, err := mf.Process(ctx, []types.Data{sig})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(*types.Table).NumRows() != 0 {
		t.Error("threshold did not filter")
	}
}

func TestInjectChirpBoundsChecked(t *testing.T) {
	ctx := units.TestContext()
	sig := types.NewSampleSet(2000, make([]float64, 100))
	inj := mustNew(t, NameInjectChirp, units.Params{"length": "200", "offset": "0"})
	if _, err := inj.Process(ctx, []types.Data{sig}); err == nil ||
		!strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversized injection error = %v", err)
	}
}

func TestChirpGenEmitsSampleSet(t *testing.T) {
	out := run1(t, mustNew(t, NameChirpGen, units.Params{"samples": "512", "samplingRate": "2000"}))
	s := out.(*types.SampleSet)
	if len(s.Samples) != 512 || s.SamplingRate != 2000 {
		t.Errorf("chirp = n%d rate%g", len(s.Samples), s.SamplingRate)
	}
}

func TestWrongTypeInputsRejectedEverywhere(t *testing.T) {
	ctx := units.TestContext()
	text := &types.Text{S: "not a signal"}
	for _, name := range []string{
		NameGaussianNoise, NameFFT, NamePowerSpectrum, NameWindow,
		NameDecimate, NameInjectChirp, NameMatchedFilter,
	} {
		u, err := units.New(name, nil)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		if _, err := u.Process(ctx, []types.Data{text}); err == nil {
			t.Errorf("%s accepted Text input", name)
		}
	}
	accum, _ := units.New(NameAccumStat, nil)
	if _, err := accum.Process(ctx, []types.Data{text}); err == nil {
		t.Error("AccumStat accepted Text input")
	}
	peak, _ := units.New(NamePeakDetect, nil)
	if _, err := peak.Process(ctx, []types.Data{text}); err == nil {
		t.Error("PeakDetect accepted Text input")
	}
}
