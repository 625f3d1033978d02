package unitio

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"consumergrid/internal/sandbox"
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

func fsContext(t *testing.T, root string) *units.Context {
	t.Helper()
	return &units.Context{
		Ctx: context.Background(),
		Sandbox: sandbox.New(sandbox.Policy{
			Allow:  []sandbox.Permission{sandbox.FSRead, sandbox.FSWrite},
			FSRoot: root,
		}),
		Seed: 1,
	}
}

func TestGrapherRetainsAndRenders(t *testing.T) {
	g := mustNew(t, NameGrapher, nil).(*Grapher)
	ctx := units.TestContext()
	if g.Last() != nil || g.RenderASCII(5, 10) != "(no data)" {
		t.Error("fresh grapher state wrong")
	}
	// Under the zero-copy ownership contract the Grapher owns (and
	// retains) the delivered datum without a defensive copy, so a caller
	// that wants to keep the original must seal or clone it first.
	spec := &types.Spectrum{Resolution: 1, Amplitudes: []float64{0, 1, 5, 1, 0, 0, 0, 0}}
	if _, err := g.Process(ctx, []types.Data{spec.Clone()}); err != nil {
		t.Fatal(err)
	}
	if g.Seen() != 1 {
		t.Errorf("Seen = %d", g.Seen())
	}
	got := g.Last().(*types.Spectrum)
	if got.Amplitudes[2] != 5 {
		t.Errorf("retained datum wrong: %v", got.Amplitudes)
	}
	if spec.Amplitudes[0] != 0 {
		t.Error("Grapher aliased producer data")
	}
	chart := g.RenderASCII(4, 8)
	if !strings.Contains(chart, "*") || !strings.Contains(chart, "max=") {
		t.Errorf("chart:\n%s", chart)
	}
	// Non-plottable type.
	g.Process(ctx, []types.Data{&types.Text{S: "x"}})
	if !strings.Contains(g.RenderASCII(4, 8), "not plottable") {
		t.Error("text datum should not be plottable")
	}
	g.Reset()
	if g.Last() != nil || g.Seen() != 0 {
		t.Error("Reset failed")
	}
}

func TestDataWriterThenReaderRoundTrip(t *testing.T) {
	root := t.TempDir()
	ctx := fsContext(t, root)
	w := mustNew(t, NameDataWriter, units.Params{"path": "out/stream"}).(*DataWriter)
	for i := 0; i < 3; i++ {
		if _, err := w.Process(ctx, []types.Data{&types.Const{Value: float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if w.Written() != 3 {
		t.Errorf("Written = %d", w.Written())
	}
	// Concatenate the per-datum files into one stream for the reader.
	var all []byte
	for i := 0; i < 3; i++ {
		b, err := os.ReadFile(filepath.Join(root, "out", "stream."+pad6(i)))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	if err := os.WriteFile(filepath.Join(root, "stream.all"), all, 0o644); err != nil {
		t.Fatal(err)
	}
	r := mustNew(t, NameDataReader, units.Params{"path": "stream.all"})
	for i := 0; i < 3; i++ {
		out, err := r.Process(ctx, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out[0].(*types.Const).Value != float64(i) {
			t.Errorf("datum %d = %v", i, out[0])
		}
	}
	if _, err := r.Process(ctx, nil); err == nil {
		t.Error("exhausted reader should fail")
	}
}

func pad6(i int) string {
	s := "00000" + string(rune('0'+i))
	return s[len(s)-6:]
}

func TestDataReaderDeniedOutsideSandbox(t *testing.T) {
	ctx := units.TestContext() // deny-all sandbox
	r := mustNew(t, NameDataReader, units.Params{"path": "x"})
	if _, err := r.Process(ctx, nil); err == nil {
		t.Error("deny-all sandbox allowed read")
	}
	if _, err := units.New(NameDataReader, nil); err == nil {
		t.Error("missing path accepted")
	}
	if _, err := units.New(NameDataWriter, nil); err == nil {
		t.Error("missing path accepted")
	}
}

func TestAnimatorOrdersOutOfOrderFrames(t *testing.T) {
	a := mustNew(t, NameAnimator, nil).(*Animator)
	ctx := units.TestContext()
	for _, f := range []int{3, 0, 2, 1} {
		im := types.NewImage(2, 2)
		im.Frame = f
		im.Set(0, 0, float64(f))
		if _, err := a.Process(ctx, []types.Data{im}); err != nil {
			t.Fatal(err)
		}
	}
	frames := a.Frames()
	if len(frames) != 4 {
		t.Fatalf("frames = %d", len(frames))
	}
	for i, f := range frames {
		if f.Frame != i || f.At(0, 0) != float64(i) {
			t.Errorf("frame %d out of order: %d", i, f.Frame)
		}
	}
	if !a.Complete(4) {
		t.Error("Complete(4) false")
	}
	if a.Complete(5) {
		t.Error("Complete(5) true with only 4 frames")
	}
	if _, err := a.Process(ctx, []types.Data{&types.Text{}}); err == nil {
		t.Error("Animator accepted Text")
	}
	a.Reset()
	if len(a.Frames()) != 0 {
		t.Error("Reset failed")
	}
}
