package types

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current encoder")

// goldenFixtures covers every registered type, with the float edge
// cases (NaN, ±Inf, -0), empty slices and a ControlSignal carrying
// attributes. Their encodings are chunk addresses, quorum digests,
// journaled outputs and DataWriter files, so no byte may drift.
func goldenFixtures() []struct {
	name string
	d    Data
} {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		math.MaxFloat64, math.SmallestNonzeroFloat64, 1.5}
	ctl := &ControlSignal{Kind: CtlRewire, Seq: 300}
	ctl.SetAttr("peer", "p-7")
	ctl.SetAttr("group", "GroupTask")
	ctl.SetAttr("", "empty key")
	img := NewImage(3, 2)
	img.Set(2, 1, math.Inf(1))
	img.Frame = 129
	ps := NewParticleSet(2)
	ps.Time, ps.Frame = 12.5, 3
	ps.X[0], ps.Y[1], ps.Z[0], ps.Mass[1], ps.Smoothing[0] = -1, math.NaN(), 3, 2.5, 0.25
	return []struct {
		name string
		d    Data
	}{
		{"vec", NewVec([]float64{1, 2, 3})},
		{"vec-empty", &Vec{}},
		{"const-nan", &Const{Value: math.NaN()}},
		{"const-neginf", &Const{Value: math.Inf(-1)}},
		{"sampleset-special", &SampleSet{SamplingRate: 2000, Start: 900, Samples: special}},
		{"sampleset-empty", &SampleSet{SamplingRate: 1}},
		{"spectrum", &Spectrum{Resolution: 0.5, Amplitudes: []float64{0, 1, math.Inf(1)}}},
		{"complexspectrum", &ComplexSpectrum{Resolution: 2, Re: []float64{1, math.NaN()}, Im: []float64{-3, 4}}},
		{"complexspectrum-empty", &ComplexSpectrum{}},
		{"matrix", &Matrix{Rows: 2, Cols: 3, Cells: []float64{1, 2, 3, 4, 5, math.Inf(-1)}}},
		{"matrix-empty", &Matrix{Rows: 0, Cols: 7}},
		{"histogram", &Histogram{Lo: -1, Width: 0.25, Counts: []float64{4, 0, 2}}},
		{"image", img},
		{"image-empty", &Image{}},
		{"text", &Text{S: "wave → gaussian → fft\n日本語"}},
		{"text-empty", &Text{}},
		{"table", &Table{Columns: []string{"id", "name"}, Rows: [][]string{{"1", "geo600"}, {"2", ""}}}},
		{"table-empty", &Table{}},
		{"table-no-rows", &Table{Columns: []string{"a", "b"}}},
		{"particleset", ps},
		{"particleset-empty", &ParticleSet{Time: math.NaN()}},
		{"control-attrs", ctl},
		{"control-bare", &ControlSignal{Kind: CtlStop, Seq: 1 << 40}},
	}
}

func goldenPath(name string) string { return filepath.Join("testdata", "golden", name+".bin") }

// TestGoldenEncodings: Marshal writes each fixture's committed bytes,
// and those bytes decode to a value that marshals to them again.
func TestGoldenEncodings(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range goldenFixtures() {
		seen[f.d.TypeName()] = true
		got, err := Marshal(f.d)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", f.name, err)
		}
		if *update {
			if err := os.MkdirAll(filepath.Dir(goldenPath(f.name)), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(goldenPath(f.name), got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(goldenPath(f.name))
		if err != nil {
			t.Fatalf("%s: %v (run with -update to create)", f.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoding drifted:\n got %x\nwant %x", f.name, got, want)
		}
		d, err := Unmarshal(want)
		if err != nil {
			t.Fatalf("%s: Unmarshal golden: %v", f.name, err)
		}
		if again, err := Marshal(d); err != nil || !bytes.Equal(again, want) {
			t.Errorf("%s: golden did not survive decode and re-encode: %x, %v", f.name, again, err)
		}
	}
	for _, name := range Names() {
		if !seen[name] {
			t.Errorf("no golden fixture for registered type %s", name)
		}
	}
}

// TestSizeMatchesMarshal: Size is the exact length Marshal writes, for
// every fixture and every committed golden encoding, so AppendMarshal
// grows its buffer once and never again.
func TestSizeMatchesMarshal(t *testing.T) {
	for _, f := range goldenFixtures() {
		p, err := Marshal(f.d)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", f.name, err)
		}
		if n := Size(f.d); n != len(p) {
			t.Errorf("%s: Size %d, Marshal wrote %d bytes", f.name, n, len(p))
		}
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "golden", "*.bin"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden encodings: %v", err)
	}
	for _, path := range paths {
		p, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Unmarshal(p)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if n := Size(d); n != len(p) {
			t.Errorf("%s: Size %d, encoding is %d bytes", path, n, len(p))
		}
	}
	if Size(nil) != 0 {
		t.Error("Size(nil) is not 0")
	}
}
