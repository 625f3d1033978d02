package types

import (
	"errors"
	"fmt"
	"math"

	"consumergrid/internal/frame"
)

// Registered type names for the media/tabular family.
const (
	NameImage       = "triana.types.ImageType"
	NameText        = "triana.types.TextType"
	NameTable       = "triana.types.TableType"
	NameParticleSet = "triana.types.ParticleSet"
)

func init() {
	Register(NameImage, NameMatrix, decodeImage)
	Register(NameText, "", decodeText)
	Register(NameTable, "", decodeTable)
	Register(NameParticleSet, "", decodeParticleSet)
}

// Image is a grayscale raster, row-major, with float64 intensity values.
// It is the output of the galaxy-formation column-density renderer (E1);
// intensities are unbounded (they are projected mass densities), and the
// Grapher/Animator units normalise at display time.
type Image struct {
	sealable
	W, H int
	// Pix has length W*H, row-major (Pix[y*W+x]).
	Pix []float64
	// Frame identifies this image's position in an animation sequence,
	// letting farmed-out frames be re-ordered on return (§3.6.1: "returns
	// its processed data in order, allowing the frames to be animated").
	Frame int
}

// NewImage allocates a zeroed w x h image.
func NewImage(w, h int) *Image {
	if w < 0 || h < 0 {
		panic("types: negative image dimension")
	}
	return &Image{W: w, H: h, Pix: make([]float64, w*h)}
}

func (im *Image) TypeName() string { return NameImage }

func (im *Image) Clone() Data {
	c := &Image{W: im.W, H: im.H, Frame: im.Frame, Pix: make([]float64, len(im.Pix))}
	copy(c.Pix, im.Pix)
	return c
}

// At returns the intensity at (x, y).
func (im *Image) At(x, y int) float64 { return im.Pix[y*im.W+x] }

// Set assigns the intensity at (x, y).
func (im *Image) Set(x, y int, v float64) { im.Pix[y*im.W+x] = v }

// Valid reports whether the pixel count matches the declared shape. A
// shape whose W*H overflows is never valid.
func (im *Image) Valid() bool { return shapeHolds(im.W, im.H, len(im.Pix)) }

// MaxIntensity returns the largest pixel value (0 for an empty image).
func (im *Image) MaxIntensity() float64 {
	var max float64
	for _, p := range im.Pix {
		if p > max {
			max = p
		}
	}
	return max
}

func (im *Image) shapeErr() error {
	return fmt.Errorf("types: image shape %dx%d does not match %d pixels", im.W, im.H, len(im.Pix))
}

func (im *Image) encode(b []byte) ([]byte, error) {
	if !im.Valid() {
		return nil, im.shapeErr()
	}
	b = frame.AppendUvarint(frame.AppendUvarint(b, uint64(im.W)), uint64(im.H))
	return frame.AppendFloat64s(frame.AppendUvarint(b, uint64(im.Frame)), im.Pix), nil
}

func (im *Image) size() int {
	return frame.UvarintLen(uint64(im.W)) + frame.UvarintLen(uint64(im.H)) +
		frame.UvarintLen(uint64(im.Frame)) + frame.Float64sLen(im.Pix)
}

func decodeImage(r *frame.Reader) Data {
	im := &Image{W: readInt(r), H: readInt(r), Frame: readInt(r), Pix: r.Float64s()}
	if r.Err() == nil && !im.Valid() {
		r.Fail(im.shapeErr())
	}
	return im
}

// Text carries a string payload between text-processing units and is the
// natural encoding for workflow scripts and log lines in transit.
type Text struct {
	sealable
	S string
}

func (t *Text) TypeName() string { return NameText }
func (t *Text) Clone() Data      { return &Text{S: t.S} }

func (t *Text) encode(b []byte) ([]byte, error) { return frame.AppendString(b, t.S), nil }

func (t *Text) size() int { return frame.StringLen(t.S) }

// maxTextLen bounds decoded text payloads (64 MiB).
const maxTextLen = 64 << 20

func decodeText(r *frame.Reader) Data { return &Text{S: r.String(maxTextLen)} }

// Table is a simple relational result set: named columns and string cells.
// It is what the Case-3 database pipeline's data-access service emits and
// what the manipulation/visualisation/verification services consume.
type Table struct {
	sealable
	Columns []string
	// Rows holds one slice per row; every row must have len == len(Columns).
	Rows [][]string
}

func (t *Table) TypeName() string { return NameTable }

func (t *Table) Clone() Data {
	c := &Table{Columns: append([]string(nil), t.Columns...)}
	c.Rows = make([][]string, len(t.Rows))
	for i, row := range t.Rows {
		c.Rows[i] = append([]string(nil), row...)
	}
	return c
}

// NumRows reports the number of rows.
func (t *Table) NumRows() int { return len(t.Rows) }

// ColumnIndex returns the index of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// Valid reports whether every row matches the column count.
func (t *Table) Valid() bool {
	for _, row := range t.Rows {
		if len(row) != len(t.Columns) {
			return false
		}
	}
	return true
}

const maxCellLen = 1 << 20

func (t *Table) encode(b []byte) ([]byte, error) {
	if !t.Valid() {
		return nil, fmt.Errorf("types: ragged table (want %d columns)", len(t.Columns))
	}
	if len(t.Columns) == 0 && len(t.Rows) > 0 {
		return nil, errRowsWithoutColumns
	}
	b = frame.AppendUvarint(b, uint64(len(t.Columns)))
	for _, col := range t.Columns {
		b = frame.AppendString(b, col)
	}
	b = frame.AppendUvarint(b, uint64(len(t.Rows)))
	for _, row := range t.Rows {
		for _, cell := range row {
			b = frame.AppendString(b, cell)
		}
	}
	return b, nil
}

func (t *Table) size() int {
	n := frame.UvarintLen(uint64(len(t.Columns))) + frame.UvarintLen(uint64(len(t.Rows)))
	for _, col := range t.Columns {
		n += frame.StringLen(col)
	}
	for _, row := range t.Rows {
		for _, cell := range row {
			n += frame.StringLen(cell)
		}
	}
	return n
}

// errRowsWithoutColumns rejects, on both encode and decode, a table
// whose rows carry no cells: its row count would be backed by no bytes.
var errRowsWithoutColumns = errors.New("types: table has rows but no columns")

func decodeTable(r *frame.Reader) Data {
	t := &Table{Columns: readStrings(r, r.Count(1))}
	// Each row holds len(Columns) cells of at least one byte each.
	n := r.Count(max(len(t.Columns), 1))
	if len(t.Columns) == 0 && n > 0 {
		r.Fail(errRowsWithoutColumns)
		return t
	}
	t.Rows = make([][]string, n)
	for i := range t.Rows {
		t.Rows[i] = readStrings(r, len(t.Columns))
	}
	return t
}

// readStrings reads n cells; n must already be bounded by the bytes left.
func readStrings(r *frame.Reader, n int) []string {
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.String(maxCellLen)
	}
	return ss
}

// ParticleSet is a snapshot of an N-body/SPH simulation at one instant:
// positions, masses and smoothing lengths, as produced by the Cardiff
// galaxy-formation code in §3.6.1. Arrays are parallel (index i describes
// particle i).
type ParticleSet struct {
	sealable
	// Time is the simulation time of the snapshot.
	Time float64
	// Frame identifies the snapshot's index in the animation sequence.
	Frame     int
	X, Y, Z   []float64
	Mass      []float64
	Smoothing []float64
}

// NewParticleSet allocates a zeroed set for n particles.
func NewParticleSet(n int) *ParticleSet {
	return &ParticleSet{
		X: make([]float64, n), Y: make([]float64, n), Z: make([]float64, n),
		Mass: make([]float64, n), Smoothing: make([]float64, n),
	}
}

func (p *ParticleSet) TypeName() string { return NameParticleSet }

// Len reports the particle count.
func (p *ParticleSet) Len() int { return len(p.X) }

// Valid reports whether all parallel arrays agree in length.
func (p *ParticleSet) Valid() bool {
	n := len(p.X)
	return len(p.Y) == n && len(p.Z) == n && len(p.Mass) == n && len(p.Smoothing) == n
}

func (p *ParticleSet) Clone() Data {
	c := &ParticleSet{Time: p.Time, Frame: p.Frame,
		X: append([]float64(nil), p.X...), Y: append([]float64(nil), p.Y...),
		Z: append([]float64(nil), p.Z...), Mass: append([]float64(nil), p.Mass...),
		Smoothing: append([]float64(nil), p.Smoothing...)}
	return c
}

// TotalMass returns the summed particle mass.
func (p *ParticleSet) TotalMass() float64 {
	var s float64
	for _, m := range p.Mass {
		s += m
	}
	return s
}

// Bounds returns the axis-aligned bounding box of the particle positions.
// For an empty set it returns all zeros.
func (p *ParticleSet) Bounds() (minX, maxX, minY, maxY, minZ, maxZ float64) {
	if p.Len() == 0 {
		return
	}
	minX, maxX = math.Inf(1), math.Inf(-1)
	minY, maxY = math.Inf(1), math.Inf(-1)
	minZ, maxZ = math.Inf(1), math.Inf(-1)
	for i := range p.X {
		minX = math.Min(minX, p.X[i])
		maxX = math.Max(maxX, p.X[i])
		minY = math.Min(minY, p.Y[i])
		maxY = math.Max(maxY, p.Y[i])
		minZ = math.Min(minZ, p.Z[i])
		maxZ = math.Max(maxZ, p.Z[i])
	}
	return
}

var errRaggedParticles = errors.New("types: ragged particle set")

func (p *ParticleSet) encode(b []byte) ([]byte, error) {
	if !p.Valid() {
		return nil, errRaggedParticles
	}
	b = frame.AppendUvarint(frame.AppendFloat64(b, p.Time), uint64(p.Frame))
	for _, arr := range [][]float64{p.X, p.Y, p.Z, p.Mass, p.Smoothing} {
		b = frame.AppendFloat64s(b, arr)
	}
	return b, nil
}

func (p *ParticleSet) size() int {
	n := 8 + frame.UvarintLen(uint64(p.Frame))
	for _, arr := range [][]float64{p.X, p.Y, p.Z, p.Mass, p.Smoothing} {
		n += frame.Float64sLen(arr)
	}
	return n
}

func decodeParticleSet(r *frame.Reader) Data {
	p := &ParticleSet{Time: r.Float64(), Frame: readInt(r),
		X: r.Float64s(), Y: r.Float64s(), Z: r.Float64s(), Mass: r.Float64s(), Smoothing: r.Float64s()}
	if !p.Valid() {
		r.Fail(errRaggedParticles)
	}
	return p
}
