// Package types implements the built-in data types that flow between
// Triana units in the Consumer Grid, mirroring the type system described
// in §3.1 of the paper: a set of concrete numeric, signal, image, text and
// tabular types, a type registry with a subtype hierarchy used for
// connection type-checking, and a compact binary wire codec used when data
// crosses peer boundaries.
//
// The zero value of every concrete type is usable; the codec round-trips
// every type exactly (floats bit-for-bit).
package types

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Data is the interface satisfied by every value that can travel along a
// pipe between two units. Implementations must be safe to encode from one
// goroutine while other goroutines hold clones; Clone performs a deep copy
// so a unit may mutate its input without aliasing the producer's buffer.
type Data interface {
	// TypeName reports the registered name of the concrete type, e.g.
	// "triana.types.SampleSet". It is the key used for connection
	// type-checking and for codec dispatch.
	TypeName() string

	// Clone returns a deep copy sharing no mutable state with the
	// receiver. Clones are always unsealed, regardless of the receiver.
	Clone() Data

	// Immutable reports whether the value has been sealed read-only (see
	// Seal). Sealed values are shared across fan-out edges instead of
	// cloned; holders must go through Mutable before writing.
	Immutable() bool

	// encode writes the body of the value (without the type-name header)
	// to w.
	encode(w io.Writer) error
}

// decoder reconstructs a value body previously written by encode.
type decoder func(r io.Reader) (Data, error)

// registry holds the known types, their decoders and the subtype relation.
type registry struct {
	mu       sync.RWMutex
	decoders map[string]decoder
	parents  map[string]string // child type name -> direct parent type name
}

var reg = &registry{
	decoders: make(map[string]decoder),
	parents:  make(map[string]string),
}

// Register makes a type known to the codec and the compatibility checker.
// parent may be empty for root types. Register panics if name is already
// taken; type names are process-global constants so a collision is a
// programming error.
func Register(name, parent string, dec decoder) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if _, dup := reg.decoders[name]; dup {
		panic("types: duplicate registration of " + name)
	}
	reg.decoders[name] = dec
	if parent != "" {
		reg.parents[name] = parent
	}
}

// Registered reports whether a type name is known.
func Registered(name string) bool {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	_, ok := reg.decoders[name]
	return ok
}

// Names returns all registered type names in sorted order.
func Names() []string {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	out := make([]string, 0, len(reg.decoders))
	for n := range reg.decoders {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// AnyType is the wildcard accepted-input name: a unit declaring AnyType on
// an input node accepts every registered type.
const AnyType = "triana.types.Any"

// Assignable reports whether a value of type out may be delivered to an
// input declared as accepting in. It is true when either side is the
// wildcard (an Any-typed output is only checkable at run time), when the
// names match exactly, or when out is a (transitive) subtype of in.
func Assignable(out, in string) bool {
	if in == AnyType || out == AnyType || out == in {
		return true
	}
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	for cur := out; cur != ""; {
		p, ok := reg.parents[cur]
		if !ok {
			return false
		}
		if p == in {
			return true
		}
		cur = p
	}
	return false
}

// CompatibleAny reports whether out is assignable to at least one of the
// accepted input type names.
func CompatibleAny(out string, accepted []string) bool {
	for _, in := range accepted {
		if Assignable(out, in) {
			return true
		}
	}
	return len(accepted) == 0 // no declaration means "anything goes"
}

// ---------------------------------------------------------------------------
// Wire codec
//
// Framing:  [uvarint len][type name bytes][body...]
// The body layout is type-specific; all integers are unsigned varints and
// all floats are IEEE-754 little-endian bit patterns.

// ErrUnknownType is returned by Read when the stream names a type that has
// not been registered in this process.
var ErrUnknownType = errors.New("types: unknown type name in stream")

// maxNameLen bounds the type-name header so a corrupt stream cannot force
// a huge allocation.
const maxNameLen = 256

// maxSliceLen bounds decoded slice lengths (1 Gi elements) for the same
// reason.
const maxSliceLen = 1 << 30

// Write encodes d, including its type-name header, to w.
func Write(w io.Writer, d Data) error {
	if d == nil {
		return errors.New("types: cannot encode nil Data")
	}
	name := d.TypeName()
	if err := writeString(w, name); err != nil {
		return err
	}
	return d.encode(w)
}

// Read decodes one value previously written by Write.
func Read(r io.Reader) (Data, error) {
	name, err := readString(r, maxNameLen)
	if err != nil {
		return nil, err
	}
	reg.mu.RLock()
	dec, ok := reg.decoders[name]
	reg.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownType, name)
	}
	return dec(r)
}

// Marshal encodes d to a fresh byte slice. The slice is preallocated
// from a running per-type size estimate, so steady-state encoding of
// same-shaped values performs a single allocation instead of a
// geometric append-growth chain.
func Marshal(d Data) ([]byte, error) {
	if d == nil {
		return nil, errors.New("types: cannot encode nil Data")
	}
	name := d.TypeName()
	buf := writerBuf{b: make([]byte, 0, estimateSize(name))}
	if err := Write(&buf, d); err != nil {
		return nil, err
	}
	observeSize(name, len(buf.b))
	return buf.b, nil
}

// MarshalInto encodes d into buf (which is first grown to the per-type
// size estimate), so per-iteration encoders can hold one bytes.Buffer
// and amortise the allocation entirely.
func MarshalInto(buf *bytes.Buffer, d Data) error {
	if d == nil {
		return errors.New("types: cannot encode nil Data")
	}
	name := d.TypeName()
	buf.Grow(estimateSize(name))
	start := buf.Len()
	if err := Write(buf, d); err != nil {
		return err
	}
	observeSize(name, buf.Len()-start)
	return nil
}

// --- running size estimate per type ----------------------------------------
//
// The codec keeps a smoothed per-type estimate of encoded sizes so the
// Marshal family can preallocate. Workloads are overwhelmingly
// homogeneous per type (fixed-size SampleSet chunks, fixed-geometry
// images), so a simple EMA with headroom converges after a couple of
// values and stays exact from then on.

var sizeEstimates sync.Map // type name -> *atomic.Int64 (smoothed bytes)

func estimateSize(name string) int {
	if v, ok := sizeEstimates.Load(name); ok {
		if est := v.(*atomic.Int64).Load(); est > 0 {
			// Headroom absorbs small payload growth between updates.
			return int(est) + int(est)>>3 + 16
		}
	}
	return 64
}

func observeSize(name string, n int) {
	v, ok := sizeEstimates.Load(name)
	if !ok {
		e := new(atomic.Int64)
		e.Store(int64(n))
		if v, ok = sizeEstimates.LoadOrStore(name, e); !ok {
			return
		}
	}
	e := v.(*atomic.Int64)
	old := e.Load()
	// 3:1 EMA; a lost race just means one observation is skipped.
	e.CompareAndSwap(old, (3*old+int64(n))/4)
}

// Unmarshal decodes a value from p, requiring that the whole of p is
// consumed.
func Unmarshal(p []byte) (Data, error) {
	r := &readerBuf{b: p}
	d, err := Read(r)
	if err != nil {
		return nil, err
	}
	if r.off != len(p) {
		return nil, fmt.Errorf("types: %d trailing bytes after value", len(p)-r.off)
	}
	return d, nil
}

type writerBuf struct{ b []byte }

func (w *writerBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// writeF64s is the zero-copy fast path used by writeF64Slice: it grows
// the underlying slice once and encodes elements directly into it,
// skipping the chunked staging buffer.
func (w *writerBuf) writeF64s(xs []float64) {
	off := len(w.b)
	need := off + len(xs)*8
	if cap(w.b) < need {
		grown := make([]byte, off, need)
		copy(grown, w.b)
		w.b = grown
	}
	w.b = w.b[:need]
	for _, v := range xs {
		binary.LittleEndian.PutUint64(w.b[off:], math.Float64bits(v))
		off += 8
	}
}

type readerBuf struct {
	b   []byte
	off int
}

func (r *readerBuf) Read(p []byte) (int, error) {
	if r.off >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}

// ReadByte lets binary.ReadUvarint consume the buffer without the
// byteReaderAdapter allocation.
func (r *readerBuf) ReadByte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, io.EOF
	}
	c := r.b[r.off]
	r.off++
	return c, nil
}

// readF64s decodes directly from the backing slice, skipping the
// chunked staging buffer.
func (r *readerBuf) readF64s(dst []float64) error {
	need := len(dst) * 8
	if len(r.b)-r.off < need {
		return io.ErrUnexpectedEOF
	}
	b := r.b[r.off:]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	r.off += need
	return nil
}

// --- primitive helpers -----------------------------------------------------

func writeUvarint(w io.Writer, v uint64) error {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	_, err := w.Write(tmp[:n])
	return err
}

func readUvarint(r io.Reader) (uint64, error) {
	br, ok := r.(io.ByteReader)
	if !ok {
		br = &byteReaderAdapter{r: r}
	}
	return binary.ReadUvarint(br)
}

type byteReaderAdapter struct {
	r   io.Reader
	buf [1]byte
}

func (a *byteReaderAdapter) ReadByte() (byte, error) {
	_, err := io.ReadFull(a.r, a.buf[:])
	return a.buf[0], err
}

func writeString(w io.Writer, s string) error {
	if err := writeUvarint(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader, max int) (string, error) {
	n, err := readUvarint(r)
	if err != nil {
		return "", err
	}
	if n > uint64(max) {
		return "", fmt.Errorf("types: string length %d exceeds limit %d", n, max)
	}
	if rb, ok := r.(*readerBuf); ok {
		if uint64(len(rb.b)-rb.off) < n {
			return "", io.ErrUnexpectedEOF
		}
		s := string(rb.b[rb.off : rb.off+int(n)])
		rb.off += int(n)
		return s, nil
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

func writeF64(w io.Writer, f float64) error {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(f))
	_, err := w.Write(tmp[:])
	return err
}

func readF64(r io.Reader) (float64, error) {
	var tmp [8]byte
	if _, err := io.ReadFull(r, tmp[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(tmp[:])), nil
}

func writeF64Slice(w io.Writer, xs []float64) error {
	if err := writeUvarint(w, uint64(len(xs))); err != nil {
		return err
	}
	if wb, ok := w.(*writerBuf); ok {
		wb.writeF64s(xs)
		return nil
	}
	// Encode in chunks to amortise Write calls without allocating the
	// whole payload at once for very large sample sets.
	const chunk = 1024
	var tmp [chunk * 8]byte
	for len(xs) > 0 {
		n := len(xs)
		if n > chunk {
			n = chunk
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(tmp[i*8:], math.Float64bits(xs[i]))
		}
		if _, err := w.Write(tmp[:n*8]); err != nil {
			return err
		}
		xs = xs[n:]
	}
	return nil
}

func readF64Slice(r io.Reader) ([]float64, error) {
	n, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > maxSliceLen {
		return nil, fmt.Errorf("types: slice length %d exceeds limit", n)
	}
	if rb, ok := r.(*readerBuf); ok {
		// Bound the allocation by what the buffer can actually hold, so
		// a corrupt in-memory frame cannot force a huge make.
		if uint64(len(rb.b)-rb.off) < n*8 {
			return nil, io.ErrUnexpectedEOF
		}
		xs := make([]float64, n)
		if err := rb.readF64s(xs); err != nil {
			return nil, err
		}
		return xs, nil
	}
	xs := make([]float64, n)
	const chunk = 1024
	var tmp [chunk * 8]byte
	for i := uint64(0); i < n; {
		want := n - i
		if want > chunk {
			want = chunk
		}
		if _, err := io.ReadFull(r, tmp[:want*8]); err != nil {
			return nil, err
		}
		for j := uint64(0); j < want; j++ {
			xs[i+j] = math.Float64frombits(binary.LittleEndian.Uint64(tmp[j*8:]))
		}
		i += want
	}
	return xs, nil
}

func writeStringSlice(w io.Writer, ss []string) error {
	if err := writeUvarint(w, uint64(len(ss))); err != nil {
		return err
	}
	for _, s := range ss {
		if err := writeString(w, s); err != nil {
			return err
		}
	}
	return nil
}

func readStringSlice(r io.Reader, maxEach int) ([]string, error) {
	n, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > maxSliceLen {
		return nil, fmt.Errorf("types: slice length %d exceeds limit", n)
	}
	hint, err := sizeHint(r, n, 1)
	if err != nil {
		return nil, err
	}
	ss := make([]string, 0, hint)
	for i := uint64(0); i < n; i++ {
		s, err := readString(r, maxEach)
		if err != nil {
			return nil, err
		}
		ss = append(ss, s)
	}
	return ss, nil
}

// streamHint caps the size hint for a count read from a stream, whose
// remaining length is unknown; the slice grows by append past it.
const streamHint = 64

// sizeHint turns a decoded count of elements, each at least minEach
// (≥ 1) bytes long, into an allocation hint. An in-memory buffer fails
// a count its remaining bytes cannot hold; a stream gets at most
// streamHint, so a lying count costs no more than the bytes that
// actually arrive.
func sizeHint(r io.Reader, n uint64, minEach int) (int, error) {
	if rb, ok := r.(*readerBuf); ok {
		if n > uint64((len(rb.b)-rb.off)/minEach) {
			return 0, io.ErrUnexpectedEOF
		}
		return int(n), nil
	}
	return int(min(n, streamHint)), nil
}
