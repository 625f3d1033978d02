package types

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"consumergrid/internal/frame"
)

func roundTrip(t *testing.T, d Data) Data {
	t.Helper()
	b, err := Marshal(d)
	if err != nil {
		t.Fatalf("Marshal(%T): %v", d, err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal(%T): %v", d, err)
	}
	if got.TypeName() != d.TypeName() {
		t.Fatalf("type name changed: %q -> %q", d.TypeName(), got.TypeName())
	}
	return got
}

func TestRegistryContainsAllBuiltins(t *testing.T) {
	want := []string{
		NameVec, NameConst, NameSampleSet, NameSpectrum, NameComplexSpectrum,
		NameMatrix, NameHistogram, NameImage, NameText, NameTable,
		NameParticleSet, NameControl,
	}
	for _, n := range want {
		if !Registered(n) {
			t.Errorf("type %q not registered", n)
		}
	}
	names := Names()
	if len(names) < len(want) {
		t.Errorf("Names() returned %d entries, want >= %d", len(names), len(want))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names() not sorted at %d: %q >= %q", i, names[i-1], names[i])
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register(NameVec, "", decodeVec)
}

func TestAssignableHierarchy(t *testing.T) {
	cases := []struct {
		out, in string
		want    bool
	}{
		{NameSampleSet, NameSampleSet, true},
		{NameSampleSet, NameVec, true},  // SampleSet is-a Vec
		{NameSpectrum, NameVec, true},   // Spectrum is-a Vec
		{NameHistogram, NameVec, true},  // Histogram is-a Vec
		{NameImage, NameMatrix, true},   // Image is-a Matrix
		{NameVec, NameSampleSet, false}, // not the other way
		{NameSampleSet, NameSpectrum, false},
		{NameText, NameVec, false},
		{NameTable, AnyType, true},
		{NameControl, AnyType, true},
		{AnyType, NameTable, true}, // dynamic outputs defer to run time
		{AnyType, AnyType, true},
	}
	for _, c := range cases {
		if got := Assignable(c.out, c.in); got != c.want {
			t.Errorf("Assignable(%q, %q) = %v, want %v", c.out, c.in, got, c.want)
		}
	}
}

func TestCompatibleAny(t *testing.T) {
	if !CompatibleAny(NameSampleSet, []string{NameText, NameVec}) {
		t.Error("SampleSet should match [Text, Vec]")
	}
	if CompatibleAny(NameText, []string{NameVec, NameMatrix}) {
		t.Error("Text should not match [Vec, Matrix]")
	}
	if !CompatibleAny(NameText, nil) {
		t.Error("empty accepted list should accept everything")
	}
}

func TestVecRoundTripAndHelpers(t *testing.T) {
	v := NewVec([]float64{1, 2, 3, 4})
	got := roundTrip(t, v).(*Vec)
	if !reflect.DeepEqual(got.Values, v.Values) {
		t.Fatalf("values changed: %v -> %v", v.Values, got.Values)
	}
	if v.Sum() != 10 || v.Mean() != 2.5 || v.Len() != 4 {
		t.Errorf("helpers: sum=%v mean=%v len=%d", v.Sum(), v.Mean(), v.Len())
	}
	empty := &Vec{}
	if empty.Mean() != 0 {
		t.Errorf("empty mean = %v, want 0", empty.Mean())
	}
}

func TestSampleSetRoundTripPreservesSpecialFloats(t *testing.T) {
	s := &SampleSet{SamplingRate: 2000, Start: 900,
		Samples: []float64{0, -0.0, math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}}
	got := roundTrip(t, s).(*SampleSet)
	if got.SamplingRate != 2000 || got.Start != 900 {
		t.Fatalf("header changed: %+v", got)
	}
	for i := range s.Samples {
		if math.Float64bits(got.Samples[i]) != math.Float64bits(s.Samples[i]) {
			t.Errorf("sample %d: bits %x -> %x", i,
				math.Float64bits(s.Samples[i]), math.Float64bits(got.Samples[i]))
		}
	}
}

func TestSampleSetNaNRoundTrip(t *testing.T) {
	s := NewSampleSet(1, []float64{math.NaN()})
	got := roundTrip(t, s).(*SampleSet)
	if !math.IsNaN(got.Samples[0]) {
		t.Fatalf("NaN not preserved: %v", got.Samples[0])
	}
}

func TestSampleSetDurationAndRMS(t *testing.T) {
	s := NewSampleSet(2000, make([]float64, 1800000)) // the paper's 900 s chunk
	if d := s.Duration(); math.Abs(d-900) > 1e-9 {
		t.Errorf("Duration = %v, want 900", d)
	}
	s2 := NewSampleSet(1, []float64{3, 4})
	if r := s2.RMS(); math.Abs(r-math.Sqrt(12.5)) > 1e-12 {
		t.Errorf("RMS = %v", r)
	}
	var zero SampleSet
	if zero.Duration() != 0 || zero.RMS() != 0 {
		t.Error("zero SampleSet helpers should be 0")
	}
}

func TestSpectrumPeak(t *testing.T) {
	s := &Spectrum{Resolution: 2, Amplitudes: []float64{0, 1, 9, 3}}
	i, v := s.PeakBin()
	if i != 2 || v != 9 {
		t.Fatalf("PeakBin = (%d, %v)", i, v)
	}
	if f := s.PeakFrequency(); math.Abs(f-5) > 1e-12 { // (2+0.5)*2
		t.Errorf("PeakFrequency = %v, want 5", f)
	}
	var empty Spectrum
	if i, _ := empty.PeakBin(); i != -1 {
		t.Errorf("empty PeakBin index = %d, want -1", i)
	}
	if empty.PeakFrequency() != 0 {
		t.Error("empty PeakFrequency should be 0")
	}
}

func TestComplexSpectrumRoundTripAndValidation(t *testing.T) {
	s := &ComplexSpectrum{Resolution: 0.5, Re: []float64{1, 2}, Im: []float64{3, 4}}
	got := roundTrip(t, s).(*ComplexSpectrum)
	if got.At(1) != complex(2, 4) {
		t.Fatalf("At(1) = %v", got.At(1))
	}
	if math.Abs(got.Abs(0)-math.Sqrt(10)) > 1e-12 {
		t.Errorf("Abs(0) = %v", got.Abs(0))
	}
	bad := &ComplexSpectrum{Re: []float64{1}, Im: nil}
	if _, err := Marshal(bad); err == nil {
		t.Error("encoding mismatched re/im should fail")
	}
}

func TestMatrixRoundTripAndAccessors(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 42)
	got := roundTrip(t, m).(*Matrix)
	if got.At(1, 2) != 42 || got.Rows != 2 || got.Cols != 3 {
		t.Fatalf("matrix mangled: %+v", got)
	}
	bad := &Matrix{Rows: 2, Cols: 2, Cells: []float64{1}}
	if _, err := Marshal(bad); err == nil {
		t.Error("encoding invalid matrix should fail")
	}
}

func TestMatrixNegativeDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMatrix(-1, 2) did not panic")
		}
	}()
	NewMatrix(-1, 2)
}

func TestHistogramAddClampsAndTotals(t *testing.T) {
	h := &Histogram{Lo: 0, Width: 1, Counts: make([]float64, 4)}
	for _, v := range []float64{-5, 0.5, 1.5, 3.5, 99} {
		h.Add(v)
	}
	want := []float64{2, 1, 0, 2} // -5 clamps low, 99 clamps high
	if !reflect.DeepEqual(h.Counts, want) {
		t.Fatalf("Counts = %v, want %v", h.Counts, want)
	}
	if h.Total() != 5 {
		t.Errorf("Total = %v", h.Total())
	}
	var degenerate Histogram
	degenerate.Add(1) // must not panic
}

func TestImageRoundTripAndFrameOrder(t *testing.T) {
	im := NewImage(3, 2)
	im.Set(2, 1, 7)
	im.Frame = 13
	got := roundTrip(t, im).(*Image)
	if got.At(2, 1) != 7 || got.Frame != 13 {
		t.Fatalf("image mangled: %+v", got)
	}
	if got.MaxIntensity() != 7 {
		t.Errorf("MaxIntensity = %v", got.MaxIntensity())
	}
}

func TestTextRoundTripUnicode(t *testing.T) {
	txt := &Text{S: "wave → gaussian → fft → grapher\n日本語"}
	got := roundTrip(t, txt).(*Text)
	if got.S != txt.S {
		t.Fatalf("text changed: %q", got.S)
	}
}

func TestTableRoundTripAndHelpers(t *testing.T) {
	tab := &Table{
		Columns: []string{"id", "name"},
		Rows:    [][]string{{"1", "geo600"}, {"2", "cardiff"}},
	}
	got := roundTrip(t, tab).(*Table)
	if !reflect.DeepEqual(got, tab) {
		t.Fatalf("table changed: %+v", got)
	}
	if tab.ColumnIndex("name") != 1 || tab.ColumnIndex("missing") != -1 {
		t.Error("ColumnIndex wrong")
	}
	ragged := &Table{Columns: []string{"a"}, Rows: [][]string{{"1", "2"}}}
	if _, err := Marshal(ragged); err == nil {
		t.Error("encoding ragged table should fail")
	}
}

func TestParticleSetRoundTripAndBounds(t *testing.T) {
	p := NewParticleSet(2)
	p.X[0], p.Y[0], p.Z[0] = -1, 2, 3
	p.X[1], p.Y[1], p.Z[1] = 4, -5, 6
	p.Mass[0], p.Mass[1] = 1.5, 2.5
	p.Time, p.Frame = 12.5, 3
	got := roundTrip(t, p).(*ParticleSet)
	if got.Time != 12.5 || got.Frame != 3 || got.TotalMass() != 4 {
		t.Fatalf("particle set mangled: %+v", got)
	}
	minX, maxX, minY, maxY, minZ, maxZ := got.Bounds()
	if minX != -1 || maxX != 4 || minY != -5 || maxY != 2 || minZ != 3 || maxZ != 6 {
		t.Errorf("Bounds = %v %v %v %v %v %v", minX, maxX, minY, maxY, minZ, maxZ)
	}
	var empty ParticleSet
	if a, b, _, _, _, _ := empty.Bounds(); a != 0 || b != 0 {
		t.Error("empty Bounds should be zeros")
	}
}

func TestControlSignalRoundTripDeterministic(t *testing.T) {
	c := &ControlSignal{Kind: CtlRewire, Seq: 9}
	c.SetAttr("peer", "p-7")
	c.SetAttr("group", "GroupTask")
	b1, err := Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("ControlSignal encoding not deterministic")
	}
	got := roundTrip(t, c).(*ControlSignal)
	if got.Attr("peer") != "p-7" || got.Attr("group") != "GroupTask" || got.Kind != CtlRewire {
		t.Fatalf("control mangled: %+v", got)
	}
	var bare ControlSignal
	if bare.Attr("x") != "" {
		t.Error("Attr on nil map should be empty")
	}
}

func TestControlKindString(t *testing.T) {
	kinds := map[ControlKind]string{
		CtlStart: "start", CtlStop: "stop", CtlReset: "reset",
		CtlCheckpoint: "checkpoint", CtlRewire: "rewire", ControlKind(200): "unknown",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("empty buffer should fail")
	}
	// Unknown type name.
	if _, err := Unmarshal(frame.AppendString(nil, "no.such.Type")); !errors.Is(err, ErrUnknownType) {
		t.Errorf("unknown type error = %v", err)
	}
	// Trailing garbage.
	b, err := Marshal(&Const{Value: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(append(b, 0xFF)); err == nil {
		t.Error("trailing bytes should fail")
	}
	// Truncated body.
	if _, err := Unmarshal(b[:len(b)-1]); err == nil {
		t.Error("truncated value should fail")
	}
	// Oversized declared name length.
	if _, err := Unmarshal(frame.AppendUvarint(nil, 1<<40)); !errors.Is(err, frame.ErrTooLong) {
		t.Errorf("oversized name length error = %v", err)
	}
}

// TestControlSignalHostileAttrCount: a control frame is untrusted
// (every ControlSignal in a pipe.data frame), so an attribute count the
// bytes cannot back must fail without reserving room for it.
func TestControlSignalHostileAttrCount(t *testing.T) {
	b := append(frame.AppendString(nil, NameControl), byte(CtlRewire))
	b = frame.AppendUvarint(b, 1)        // seq
	b = frame.AppendUvarint(b, 30000000) // claimed attributes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Unmarshal(b)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("%d-byte frame claiming 30M attributes allocated %d bytes", len(b), n)
	}
	if err == nil {
		t.Fatal("frame with an attribute count it cannot back decoded")
	}
}

func TestMarshalNil(t *testing.T) {
	if _, err := Marshal(nil); err == nil {
		t.Fatal("Marshal(nil) should fail")
	}
	if _, err := AppendMarshal(nil, nil); err == nil {
		t.Fatal("AppendMarshal(nil) should fail")
	}
}

func TestClonesAreIndependent(t *testing.T) {
	s := NewSampleSet(10, []float64{1, 2, 3})
	c := s.Clone().(*SampleSet)
	c.Samples[0] = 99
	if s.Samples[0] != 1 {
		t.Error("SampleSet clone aliases parent")
	}
	tab := &Table{Columns: []string{"a"}, Rows: [][]string{{"x"}}}
	tc := tab.Clone().(*Table)
	tc.Rows[0][0] = "mut"
	if tab.Rows[0][0] != "x" {
		t.Error("Table clone aliases parent")
	}
	ctl := &ControlSignal{}
	ctl.SetAttr("k", "v")
	cc := ctl.Clone().(*ControlSignal)
	cc.SetAttr("k", "other")
	if ctl.Attr("k") != "v" {
		t.Error("ControlSignal clone aliases parent")
	}
	p := NewParticleSet(1)
	pc := p.Clone().(*ParticleSet)
	pc.X[0] = 5
	if p.X[0] != 0 {
		t.Error("ParticleSet clone aliases parent")
	}
}

// --- property-based tests ---------------------------------------------------

func TestQuickSampleSetRoundTrip(t *testing.T) {
	f := func(rate, start float64, samples []float64) bool {
		s := &SampleSet{SamplingRate: rate, Start: start, Samples: samples}
		b, err := Marshal(s)
		if err != nil {
			return false
		}
		d, err := Unmarshal(b)
		if err != nil {
			return false
		}
		g := d.(*SampleSet)
		if math.Float64bits(g.SamplingRate) != math.Float64bits(rate) ||
			math.Float64bits(g.Start) != math.Float64bits(start) ||
			len(g.Samples) != len(samples) {
			return false
		}
		for i := range samples {
			if math.Float64bits(g.Samples[i]) != math.Float64bits(samples[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickTableRoundTrip(t *testing.T) {
	f := func(cols []string, flat []string) bool {
		if len(cols) == 0 {
			cols = []string{"c"}
		}
		// Build rows from the flat pool so every row has len(cols) cells.
		var rows [][]string
		for i := 0; i+len(cols) <= len(flat); i += len(cols) {
			rows = append(rows, flat[i:i+len(cols)])
		}
		tab := &Table{Columns: cols, Rows: rows}
		b, err := Marshal(tab)
		if err != nil {
			return false
		}
		d, err := Unmarshal(b)
		if err != nil {
			return false
		}
		g := d.(*Table)
		if !reflect.DeepEqual(g.Columns, cols) || len(g.Rows) != len(rows) {
			return false
		}
		for i := range rows {
			if !reflect.DeepEqual(g.Rows[i], rows[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickControlSignalRoundTrip(t *testing.T) {
	f := func(kind uint8, seq uint64, attrs map[string]string) bool {
		c := &ControlSignal{Kind: ControlKind(kind % 5), Seq: seq, Attributes: attrs}
		b, err := Marshal(c)
		if err != nil {
			return false
		}
		d, err := Unmarshal(b)
		if err != nil {
			return false
		}
		g := d.(*ControlSignal)
		if g.Kind != c.Kind || g.Seq != seq {
			return false
		}
		if len(attrs) == 0 {
			return len(g.Attributes) == 0
		}
		return reflect.DeepEqual(g.Attributes, attrs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickUnmarshalNeverPanicsOnGarbage(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Unmarshal panicked on %x: %v", b, r)
			}
		}()
		_, _ = Unmarshal(b) // must not panic; error is fine
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickAssignableReflexiveForRegistered(t *testing.T) {
	for _, n := range Names() {
		if !Assignable(n, n) {
			t.Errorf("Assignable(%q, %q) should be reflexive", n, n)
		}
		if !Assignable(n, AnyType) {
			t.Errorf("Assignable(%q, Any) should hold", n)
		}
	}
}

// sampleOfEvery returns one populated instance of every registered
// concrete type, for registry-wide sweeps.
func sampleOfEvery() []Data {
	ctl := &ControlSignal{Kind: CtlStart, Seq: 1}
	ctl.SetAttr("k", "v")
	img := NewImage(2, 2)
	img.Set(1, 1, 3)
	ps := NewParticleSet(2)
	ps.X[1], ps.Mass[0] = 1, 2
	return []Data{
		NewVec([]float64{1, 2}),
		&Const{Value: 7},
		NewSampleSet(100, []float64{1, -1}),
		&Spectrum{Resolution: 2, Amplitudes: []float64{3, 4}},
		&ComplexSpectrum{Resolution: 1, Re: []float64{1}, Im: []float64{2}},
		&Matrix{Rows: 1, Cols: 2, Cells: []float64{5, 6}},
		&Histogram{Lo: 0, Width: 1, Counts: []float64{1, 0}},
		img,
		&Text{S: "x"},
		&Table{Columns: []string{"a"}, Rows: [][]string{{"1"}}},
		ps,
		ctl,
	}
}

// TestEveryTypeCloneAndRoundTrip sweeps the registry: every concrete
// type must deep-clone and survive the codec, and the set must cover
// every registered name (a new type without a sample here fails).
func TestEveryTypeCloneAndRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range sampleOfEvery() {
		seen[d.TypeName()] = true
		c := d.Clone()
		if c.TypeName() != d.TypeName() {
			t.Errorf("%s: clone changed type to %s", d.TypeName(), c.TypeName())
		}
		got := roundTrip(t, d)
		if !reflect.DeepEqual(got, d) {
			t.Errorf("%s: codec round trip changed value:\n got %#v\nwant %#v",
				d.TypeName(), got, d)
		}
		// Floats/LikeWith behave consistently for the Vec family.
		if xs, ok := Floats(d); ok {
			like := LikeWith(d, append([]float64(nil), xs...))
			if like.TypeName() != d.TypeName() {
				t.Errorf("%s: LikeWith produced %s", d.TypeName(), like.TypeName())
			}
		}
	}
	for _, name := range Names() {
		if !seen[name] {
			t.Errorf("no sample for registered type %s — extend sampleOfEvery", name)
		}
	}
}

func TestFloatsAndLikeWithNonFamily(t *testing.T) {
	if _, ok := Floats(&Text{}); ok {
		t.Error("Floats matched Text")
	}
	if LikeWith(&Text{}, []float64{1}).TypeName() != NameVec {
		t.Error("LikeWith fallback should be Vec")
	}
	h := &Histogram{Lo: 1, Width: 2, Counts: []float64{3}}
	like := LikeWith(h, []float64{9}).(*Histogram)
	if like.Lo != 1 || like.Width != 2 || like.Counts[0] != 9 {
		t.Errorf("LikeWith(Histogram) = %+v", like)
	}
}

// TestTableHostileCounts: a table frame is untrusted, so neither a
// column count nor a row count the bytes cannot back may reserve room.
func TestTableHostileCounts(t *testing.T) {
	frames := map[string]func(b []byte) []byte{
		"columns": func(b []byte) []byte { return frame.AppendUvarint(b, 1<<24) },
		"rows": func(b []byte) []byte {
			return frame.AppendUvarint(frame.AppendString(frame.AppendUvarint(b, 1), "a"), 1<<24)
		},
		"rows of no column": func(b []byte) []byte { return frame.AppendUvarint(frame.AppendUvarint(b, 0), 1<<24) },
	}
	for name, body := range frames {
		b := body(frame.AppendString(nil, NameTable))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Unmarshal(b)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("%s: %d-byte frame allocated %d bytes", name, len(b), n)
		}
		if err == nil {
			t.Errorf("%s: frame with a count it cannot back decoded", name)
		}
	}
}

// TestZeroColumnTable: rows without columns carry no bytes, so the
// codec refuses them both ways; a table with neither round-trips.
func TestZeroColumnTable(t *testing.T) {
	if _, err := Marshal(&Table{Rows: [][]string{{}, {}}}); err == nil {
		t.Error("encoded a table with rows but no columns")
	}
	got := roundTrip(t, &Table{}).(*Table)
	if len(got.Columns) != 0 || len(got.Rows) != 0 {
		t.Errorf("empty table round-tripped to %+v", got)
	}
}
