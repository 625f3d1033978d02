package mathx

import (
	"context"
	"math"
	"reflect"
	"testing"

	"consumergrid/internal/engine"
	"consumergrid/internal/taskgraph"
	"consumergrid/internal/types"
	"consumergrid/internal/units"
)

// runEW applies a unary unit to a Vec and returns the output values.
func runEW(t *testing.T, name string, p units.Params, in []float64) []float64 {
	t.Helper()
	u := mustNew(t, name, p)
	out := run1(t, u, types.NewVec(in))
	xs, ok := types.Floats(out)
	if !ok {
		t.Fatalf("%s emitted non-numeric %T", name, out)
	}
	return xs
}

func TestElementwiseUnits(t *testing.T) {
	in := []float64{-2, 0, 0.5, 3}
	cases := []struct {
		name   string
		params units.Params
		want   []float64
	}{
		{NameAbs, nil, []float64{2, 0, 0.5, 3}},
		{NameSquare, nil, []float64{4, 0, 0.25, 9}},
		{NameNegate, nil, []float64{2, 0, -0.5, -3}},
		{NameClip, units.Params{"lo": "-1", "hi": "1"}, []float64{-1, 0, 0.5, 1}},
		{NameCumSum, nil, []float64{-2, -2, -1.5, 1.5}},
		{NameDiff, nil, []float64{0, 2, 0.5, 2.5}},
		{NameReverse, nil, []float64{3, 0.5, 0, -2}},
		{NameSortValues, nil, []float64{-2, 0, 0.5, 3}},
	}
	for _, c := range cases {
		got := runEW(t, c.name, c.params, in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s(%v) = %v, want %v", c.name, in, got, c.want)
		}
	}
}

func TestElementwiseSpecialFunctions(t *testing.T) {
	got := runEW(t, NameSqrt, nil, []float64{4, 9})
	if got[0] != 2 || got[1] != 3 {
		t.Errorf("Sqrt = %v", got)
	}
	if !math.IsNaN(runEW(t, NameSqrt, nil, []float64{-1})[0]) {
		t.Error("Sqrt(-1) should be NaN")
	}
	exp := runEW(t, NameExp, nil, []float64{0, 1})
	if exp[0] != 1 || math.Abs(exp[1]-math.E) > 1e-12 {
		t.Errorf("Exp = %v", exp)
	}
	// Log is sign-preserving log1p of magnitude.
	lg := runEW(t, NameLog, nil, []float64{0, math.E - 1, -(math.E - 1)})
	if lg[0] != 0 || math.Abs(lg[1]-1) > 1e-12 || math.Abs(lg[2]+1) > 1e-12 {
		t.Errorf("Log = %v", lg)
	}
	norm := runEW(t, NameNormalize, nil, []float64{-4, 2})
	if norm[0] != -1 || norm[1] != 0.5 {
		t.Errorf("Normalize = %v", norm)
	}
	zero := runEW(t, NameNormalize, nil, []float64{0, 0})
	if zero[0] != 0 || zero[1] != 0 {
		t.Errorf("Normalize of zeros = %v", zero)
	}
}

func TestElementwisePreservesConcreteType(t *testing.T) {
	// A sealed input is shared: the unit copies it and leaves it
	// bit-identical.
	sealed := types.Seal(types.NewSampleSet(2000, []float64{-1, 2})).(*types.SampleSet)
	out := run1(t, mustNew(t, NameAbs, nil), sealed)
	ss, ok := out.(*types.SampleSet)
	if !ok || ss.SamplingRate != 2000 {
		t.Fatalf("Abs lost SampleSet identity: %T", out)
	}
	if ss == sealed || ss.Immutable() {
		t.Fatal("Abs returned its sealed input, not a private copy")
	}
	if math.Float64bits(sealed.Samples[0]) != math.Float64bits(-1) || sealed.Samples[1] != 2 {
		t.Errorf("sealed input mutated: %v", sealed.Samples)
	}
	if ss.Samples[0] != 1 || ss.Samples[1] != 2 {
		t.Errorf("Abs = %v", ss.Samples)
	}

	// An unsealed input is the unit's own: it is taken over and becomes
	// the output, metadata and all.
	owned := &types.Histogram{Lo: -3, Width: 0.5, Counts: []float64{-1, 2}}
	out = run1(t, mustNew(t, NameNegate, nil), owned)
	if out != types.Data(owned) {
		t.Fatalf("Negate copied an unsealed input it owns: got %T %p, gave %p", out, out, owned)
	}
	if owned.Lo != -3 || owned.Width != 0.5 || owned.Counts[0] != 1 || owned.Counts[1] != -2 {
		t.Errorf("Negate in place = %+v", owned)
	}
}

// TestElementwiseInPlaceUnderFanOut checks the other half of the
// in-place rule: an unsealed producer feeding two in-place units hands
// each its own value, so neither sees the other's writes.
func TestElementwiseInPlaceUnderFanOut(t *testing.T) {
	g := taskgraph.New("fanout")
	for _, task := range []struct{ name, unit string }{
		{"Abs", NameAbs}, {"NegA", NameNegate}, {"NegB", NameNegate},
	} {
		tk, err := units.NewTask(task.name, task.unit)
		if err != nil {
			t.Fatal(err)
		}
		g.MustAdd(tk)
	}
	g.ConnectNamed("Abs", 0, "NegA", 0)
	g.ConnectNamed("Abs", 0, "NegB", 0)
	g.ExternalIn = []taskgraph.Endpoint{{Task: "Abs", Node: 0}}
	g.ExternalOut = []taskgraph.Endpoint{{Task: "NegA", Node: 0}, {Task: "NegB", Node: 0}}

	in := make(chan types.Data, 1)
	in <- types.NewVec([]float64{-1, 2, -3})
	close(in)
	outA, outB := make(chan types.Data, 1), make(chan types.Data, 1)
	if _, err := engine.Run(context.Background(), g, engine.Options{
		Iterations:  1, // ignored: an externally fed task runs until close
		ExternalIn:  map[int]<-chan types.Data{0: in},
		ExternalOut: map[int]chan<- types.Data{0: outA, 1: outB},
	}); err != nil {
		t.Fatal(err)
	}
	a, b := <-outA, <-outB
	if a == b {
		t.Fatal("both Negates returned the same value")
	}
	want := []float64{-1, -2, -3}
	for _, d := range []types.Data{a, b} {
		xs, _ := types.Floats(d)
		if !reflect.DeepEqual(xs, want) {
			t.Errorf("Negate of |x| = %v, want %v", xs, want)
		}
	}
}

func TestClipValidation(t *testing.T) {
	if _, err := units.New(NameClip, units.Params{"lo": "2", "hi": "1"}); err == nil {
		t.Error("inverted clip bounds accepted")
	}
}

func TestReductions(t *testing.T) {
	in := []float64{3, -4, 1, -1}
	cases := map[string]float64{
		NameRMSReduce: math.Sqrt((9.0 + 16 + 1 + 1) / 4),
		NameMinReduce: -4,
		NameMaxReduce: 3,
		NameZeroCross: 3, // 3->-4, -4->1, 1->-1
	}
	for name, want := range cases {
		out := run1(t, mustNew(t, name, nil), types.NewVec(in))
		got := out.(*types.Const).Value
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	// Empty inputs are zero, not panics.
	for name := range cases {
		out := run1(t, mustNew(t, name, nil), types.NewVec(nil))
		if out.(*types.Const).Value != 0 {
			t.Errorf("%s on empty input = %v", name, out)
		}
	}
}

func TestZeroCrossEstimatesFrequency(t *testing.T) {
	// A 50 Hz sine over 1 s at 1 kHz crosses zero ~100 times.
	n := 1000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Sin(2 * math.Pi * 50 * float64(i) / 1000)
	}
	got := run1(t, mustNew(t, NameZeroCross, nil), types.NewVec(xs)).(*types.Const).Value
	if math.Abs(got-100) > 2 {
		t.Errorf("zero crossings = %g, want ~100", got)
	}
}

func TestElementwiseRejectNonNumeric(t *testing.T) {
	for _, name := range []string{NameAbs, NameRMSReduce, NameSortValues} {
		u := mustNew(t, name, nil)
		if _, err := u.Process(units.TestContext(), []types.Data{&types.Text{}}); err == nil {
			t.Errorf("%s accepted Text", name)
		}
	}
}
