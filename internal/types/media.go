package types

import (
	"errors"
	"fmt"
	"io"
	"math"
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

// Valid reports whether the pixel count matches the declared shape.
func (im *Image) Valid() bool {
	return im.W >= 0 && im.H >= 0 && len(im.Pix) == im.W*im.H
}

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

func (im *Image) encode(w io.Writer) error {
	if !im.Valid() {
		return fmt.Errorf("types: image shape %dx%d does not match %d pixels",
			im.W, im.H, len(im.Pix))
	}
	if err := writeUvarint(w, uint64(im.W)); err != nil {
		return err
	}
	if err := writeUvarint(w, uint64(im.H)); err != nil {
		return err
	}
	if err := writeUvarint(w, uint64(im.Frame)); err != nil {
		return err
	}
	return writeF64Slice(w, im.Pix)
}

func decodeImage(r io.Reader) (Data, error) {
	wv, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	hv, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	fv, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	pix, err := readF64Slice(r)
	if err != nil {
		return nil, err
	}
	im := &Image{W: int(wv), H: int(hv), Frame: int(fv), Pix: pix}
	if !im.Valid() {
		return nil, fmt.Errorf("types: image shape %dx%d does not match %d pixels",
			im.W, im.H, len(im.Pix))
	}
	return im, nil
}

// Text carries a string payload between text-processing units and is the
// natural encoding for workflow scripts and log lines in transit.
type Text struct {
	sealable
	S string
}

func (t *Text) TypeName() string { return NameText }
func (t *Text) Clone() Data      { return &Text{S: t.S} }

func (t *Text) encode(w io.Writer) error { return writeString(w, t.S) }

// maxTextLen bounds decoded text payloads (64 MiB).
const maxTextLen = 64 << 20

func decodeText(r io.Reader) (Data, error) {
	s, err := readString(r, maxTextLen)
	if err != nil {
		return nil, err
	}
	return &Text{S: s}, nil
}

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

func (t *Table) encode(w io.Writer) error {
	if !t.Valid() {
		return fmt.Errorf("types: ragged table (want %d columns)", len(t.Columns))
	}
	if len(t.Columns) == 0 && len(t.Rows) > 0 {
		return errRowsWithoutColumns
	}
	if err := writeStringSlice(w, t.Columns); err != nil {
		return err
	}
	if err := writeUvarint(w, uint64(len(t.Rows))); err != nil {
		return err
	}
	for _, row := range t.Rows {
		for _, cell := range row {
			if err := writeString(w, cell); err != nil {
				return err
			}
		}
	}
	return nil
}

// errRowsWithoutColumns rejects, on both encode and decode, a table
// whose rows carry no cells: its row count would be backed by no bytes.
var errRowsWithoutColumns = errors.New("types: table has rows but no columns")

func decodeTable(r io.Reader) (Data, error) {
	cols, err := readStringSlice(r, maxCellLen)
	if err != nil {
		return nil, err
	}
	nRows, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	if nRows > maxSliceLen {
		return nil, fmt.Errorf("types: table row count %d exceeds limit", nRows)
	}
	if len(cols) == 0 && nRows > 0 {
		return nil, errRowsWithoutColumns
	}
	hint, err := sizeHint(r, nRows, max(len(cols), 1))
	if err != nil {
		return nil, err
	}
	t := &Table{Columns: cols, Rows: make([][]string, 0, hint)}
	for i := uint64(0); i < nRows; i++ {
		row := make([]string, len(cols))
		for j := range row {
			if row[j], err = readString(r, maxCellLen); err != nil {
				return nil, err
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
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

func (p *ParticleSet) encode(w io.Writer) error {
	if !p.Valid() {
		return fmt.Errorf("types: ragged particle set")
	}
	if err := writeF64(w, p.Time); err != nil {
		return err
	}
	if err := writeUvarint(w, uint64(p.Frame)); err != nil {
		return err
	}
	for _, arr := range [][]float64{p.X, p.Y, p.Z, p.Mass, p.Smoothing} {
		if err := writeF64Slice(w, arr); err != nil {
			return err
		}
	}
	return nil
}

func decodeParticleSet(r io.Reader) (Data, error) {
	tm, err := readF64(r)
	if err != nil {
		return nil, err
	}
	fv, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	p := &ParticleSet{Time: tm, Frame: int(fv)}
	for _, dst := range []*[]float64{&p.X, &p.Y, &p.Z, &p.Mass, &p.Smoothing} {
		if *dst, err = readF64Slice(r); err != nil {
			return nil, err
		}
	}
	if !p.Valid() {
		return nil, fmt.Errorf("types: ragged particle set in stream")
	}
	return p, nil
}
