// Package unitio implements the input/output units of the Triana
// toolbox: the Grapher display sink of Figure 1/2 (here an ASCII
// renderer), file readers/writers that go through the sandbox, and the
// Animator that re-assembles farmed-out frames in order (§3.6.1).
package unitio

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"consumergrid/internal/frame"
	"consumergrid/internal/types"
	"consumergrid/internal/units"
)

// Unit names registered by this package.
const (
	NameGrapher    = "triana.unitio.Grapher"
	NameDataReader = "triana.unitio.DataReader"
	NameDataWriter = "triana.unitio.DataWriter"
	NameAnimator   = "triana.unitio.Animator"
)

func init() {
	units.Register(units.Meta{
		Name:        NameGrapher,
		Description: "Display sink: retains the latest datum and can render Vec-family data as an ASCII chart (the Figure 2 plot).",
		In:          1, Out: 0,
		InTypes:  [][]string{{types.AnyType}},
		Stateful: true,
	}, func() units.Unit { return &Grapher{} })

	units.Register(units.Meta{
		Name:        NameDataReader,
		Description: "Reads one encoded datum per iteration from a file inside the sandbox root.",
		In:          0, Out: 1,
		OutTypes: []string{types.AnyType},
		Params: []units.ParamSpec{
			{Name: "path", Description: "file path relative to the sandbox root"},
		},
	}, func() units.Unit { return &DataReader{} })

	units.Register(units.Meta{
		Name:        NameDataWriter,
		Description: "Appends each datum, encoded, to a file inside the sandbox root.",
		In:          1, Out: 0,
		InTypes: [][]string{{types.AnyType}},
		Params: []units.ParamSpec{
			{Name: "path", Description: "file path relative to the sandbox root"},
		},
	}, func() units.Unit { return &DataWriter{} })

	units.Register(units.Meta{
		Name:        NameAnimator,
		Description: "Collects Image frames and replays them in Frame order once complete, regardless of arrival order (§3.6.1).",
		In:          1, Out: 0,
		InTypes:  [][]string{{types.NameImage}},
		Stateful: true,
	}, func() units.Unit { return &Animator{} })
}

// Grapher retains the last datum for inspection; the controller reads it
// back after a run, standing in for the GUI plot window.
type Grapher struct {
	mu      sync.Mutex
	last    types.Data
	history int
}

// Name implements Unit.
func (g *Grapher) Name() string { return NameGrapher }

// Init implements Unit.
func (g *Grapher) Init(units.Params) error { return nil }

// Process implements Unit.
func (g *Grapher) Process(ctx *units.Context, in []types.Data) ([]types.Data, error) {
	if err := units.CheckArity(NameGrapher, 1, in); err != nil {
		return nil, err
	}
	g.mu.Lock()
	// The unit owns its input (sealed data is shared read-only), so
	// retaining it needs no defensive copy.
	g.last = in[0]
	g.history++
	g.mu.Unlock()
	return nil, nil
}

// Last returns the most recent datum, or nil.
func (g *Grapher) Last() types.Data {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.last
}

// Seen reports how many data arrived.
func (g *Grapher) Seen() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.history
}

// Reset implements Resettable.
func (g *Grapher) Reset() {
	g.mu.Lock()
	g.last = nil
	g.history = 0
	g.mu.Unlock()
}

// RenderASCII renders the retained datum as a rows x cols ASCII chart
// (Vec-family data only). It is the terminal stand-in for the Figure 2
// plot window.
func (g *Grapher) RenderASCII(rows, cols int) string {
	g.mu.Lock()
	last := g.last
	g.mu.Unlock()
	if last == nil {
		return "(no data)"
	}
	xs, ok := types.Floats(last)
	if !ok || len(xs) == 0 {
		return fmt.Sprintf("(%s: not plottable)", last.TypeName())
	}
	if rows < 2 {
		rows = 2
	}
	if cols < 2 {
		cols = 2
	}
	// Column-reduce by max-abs bucket so narrow peaks stay visible.
	buckets := make([]float64, cols)
	per := float64(len(xs)) / float64(cols)
	min, max := xs[0], xs[0]
	for c := 0; c < cols; c++ {
		lo, hi := int(float64(c)*per), int(float64(c+1)*per)
		if hi <= lo {
			hi = lo + 1
		}
		if hi > len(xs) {
			hi = len(xs)
		}
		best := xs[lo]
		for _, v := range xs[lo:hi] {
			if v > best {
				best = v
			}
		}
		buckets[c] = best
		if best < min {
			min = best
		}
		if best > max {
			max = best
		}
	}
	span := max - min
	if span == 0 {
		span = 1
	}
	grid := make([][]byte, rows)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", cols))
	}
	for c, v := range buckets {
		h := int((v - min) / span * float64(rows-1))
		grid[rows-1-h][c] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "max=%.4g\n", max)
	for _, row := range grid {
		b.Write(row)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "min=%.4g\n", min)
	return b.String()
}

// DataReader replays the data encoded, one after another, in a
// sandboxed file.
type DataReader struct {
	path string
	data []types.Data
	next int
	read bool
}

// Name implements Unit.
func (r *DataReader) Name() string { return NameDataReader }

// Init implements Unit.
func (r *DataReader) Init(p units.Params) error {
	r.path = p.String("path", "")
	if r.path == "" {
		return fmt.Errorf("unitio: DataReader needs a path parameter")
	}
	return nil
}

// Process implements Unit. The file is read lazily on first use so Init
// does not need sandbox access; each iteration emits the next datum, and
// exhaustion is an error (fixed-length runs should match the file).
func (r *DataReader) Process(ctx *units.Context, in []types.Data) ([]types.Data, error) {
	if err := units.CheckArity(NameDataReader, 0, in); err != nil {
		return nil, err
	}
	if !r.read {
		rc, err := ctx.Sandbox.OpenRead(r.path)
		if err != nil {
			return nil, err
		}
		b, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return nil, err
		}
		var data []types.Data
		fr := frame.NewReader(b)
		for fr.Len() > 0 {
			data = append(data, types.Decode(&fr))
		}
		if err := fr.Err(); err != nil {
			return nil, fmt.Errorf("unitio: reading %s: %w", r.path, err)
		}
		r.data, r.read = data, true
	}
	if r.next >= len(r.data) {
		return nil, fmt.Errorf("unitio: %s exhausted after %d data", r.path, len(r.data))
	}
	d := r.data[r.next]
	r.next++
	return []types.Data{d}, nil
}

// DataWriter appends encoded data to a sandboxed file.
type DataWriter struct {
	path    string
	written int
}

// Name implements Unit.
func (w *DataWriter) Name() string { return NameDataWriter }

// Init implements Unit.
func (w *DataWriter) Init(p units.Params) error {
	w.path = p.String("path", "")
	if w.path == "" {
		return fmt.Errorf("unitio: DataWriter needs a path parameter")
	}
	return nil
}

// Process implements Unit. Each datum is written to path with an
// iteration suffix: one file per datum keeps the format trivially
// seekable for DataReader-free tools.
func (w *DataWriter) Process(ctx *units.Context, in []types.Data) ([]types.Data, error) {
	if err := units.CheckArity(NameDataWriter, 1, in); err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s.%06d", w.path, w.written)
	wc, err := ctx.Sandbox.Create(name)
	if err != nil {
		return nil, err
	}
	b, err := types.Marshal(in[0])
	if err == nil {
		_, err = wc.Write(b)
	}
	if err != nil {
		wc.Close()
		return nil, fmt.Errorf("unitio: writing %s: %w", name, err)
	}
	if err := wc.Close(); err != nil {
		return nil, err
	}
	w.written++
	return nil, nil
}

// Written reports data written so far.
func (w *DataWriter) Written() int { return w.written }

// Animator accumulates frames that may arrive out of order (parallel
// farm-out returns frames as peers finish) and replays them sorted by
// Frame index: "Each distributed Triana service returns its processed
// data in order, allowing the frames to be animated."
type Animator struct {
	mu     sync.Mutex
	frames []*types.Image
}

// Name implements Unit.
func (a *Animator) Name() string { return NameAnimator }

// Init implements Unit.
func (a *Animator) Init(units.Params) error { return nil }

// Process implements Unit.
func (a *Animator) Process(ctx *units.Context, in []types.Data) ([]types.Data, error) {
	if err := units.CheckArity(NameAnimator, 1, in); err != nil {
		return nil, err
	}
	im, ok := in[0].(*types.Image)
	if !ok {
		return nil, fmt.Errorf("unitio: Animator got %s", in[0].TypeName())
	}
	a.mu.Lock()
	a.frames = append(a.frames, im)
	a.mu.Unlock()
	return nil, nil
}

// Frames returns the collected frames sorted by frame index.
func (a *Animator) Frames() []*types.Image {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := append([]*types.Image(nil), a.frames...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Frame < out[j].Frame })
	return out
}

// Complete reports whether frames 0..n-1 are all present.
func (a *Animator) Complete(n int) bool {
	got := make(map[int]bool, n)
	for _, f := range a.Frames() {
		got[f.Frame] = true
	}
	for i := 0; i < n; i++ {
		if !got[i] {
			return false
		}
	}
	return true
}

// Reset implements Resettable.
func (a *Animator) Reset() {
	a.mu.Lock()
	a.frames = nil
	a.mu.Unlock()
}
