// Package frame owns the uvarint length-prefixed record: the one data
// format in which the daemon's in-memory payloads (typed data values,
// run payloads, chunk manifests, advert lists, super-peer sync replies,
// the binary wire envelope) and checkpoint sections are written.
//
// Every byte a peer decodes comes from a stranger's machine, so the
// Reader states the decoding rules once:
//
//   - a count read from input cannot claim more elements than the bytes
//     left could hold (Count), so no decoder sizes an allocation from a
//     number it merely read;
//   - a length above the caller's maximum, or beyond the bytes left,
//     fails;
//   - a uvarint must be minimally encoded, so decode∘encode is a
//     fixpoint and two equal records are byte-equal.
//
// A Reader carries a sticky error: after the first failure every read
// returns a zero value, so a decoder reads its fields straight through
// and checks Err (or Done) once.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"
)

// The failures a Reader records.
var (
	ErrTruncated = errors.New("frame: truncated")
	ErrUvarint   = errors.New("frame: overlong or non-minimal uvarint")
	ErrCount     = errors.New("frame: count exceeds the bytes left")
	ErrTooLong   = errors.New("frame: length over its limit")
	ErrTrailing  = errors.New("frame: trailing bytes")
)

// AppendUvarint appends x as a uvarint.
func AppendUvarint(b []byte, x uint64) []byte { return binary.AppendUvarint(b, x) }

// AppendBytes appends p behind its uvarint length.
func AppendBytes(b, p []byte) []byte { return append(AppendUvarint(b, uint64(len(p))), p...) }

// AppendString appends s behind its uvarint length.
func AppendString(b []byte, s string) []byte {
	return append(AppendUvarint(b, uint64(len(s))), s...)
}

// AppendFloat64 appends f as its little-endian IEEE-754 bit pattern.
func AppendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendFloat64s appends xs behind its uvarint count. When b lacks the
// room it grows once, to exactly the length needed.
func AppendFloat64s(b []byte, xs []float64) []byte {
	b = AppendUvarint(b, uint64(len(xs)))
	if need := len(b) + 8*len(xs); need > cap(b) {
		b = append(make([]byte, 0, need), b...)
	}
	for _, f := range xs {
		b = AppendFloat64(b, f)
	}
	return b
}

// UvarintLen is the encoded size of x.
func UvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// StringLen is the encoded size of s behind its length.
func StringLen(s string) int { return UvarintLen(uint64(len(s))) + len(s) }

// Float64sLen is the encoded size of xs behind its count.
func Float64sLen(xs []float64) int { return UvarintLen(uint64(len(xs))) + 8*len(xs) }

// Reader decodes records from a byte slice. It is a plain value meant
// to live on the decoder's stack.
type Reader struct {
	b   []byte
	err error
}

// NewReader reads b. Byte views it returns alias b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err is the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len is the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) }

// Done is Err, or ErrTrailing when bytes are left unread.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) > 0 {
		return fmt.Errorf("%w: %d", ErrTrailing, len(r.b))
	}
	return r.err
}

// Fail records err as the reader's failure unless one is recorded
// already. Decoders use it for their own validity checks, so that one
// Err covers the record.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
		r.b = nil
	}
}

// Uvarint reads one minimally encoded uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.b)
	if n == 0 {
		r.Fail(ErrTruncated)
		return 0
	}
	if n < 0 || n != UvarintLen(x) {
		r.Fail(ErrUvarint)
		return 0
	}
	r.b = r.b[n:]
	return x
}

// Count reads an element count, each element taking at least minEach
// (≥ 1) bytes. A count the bytes left cannot hold fails, so the result
// may size an allocation.
func (r *Reader) Count(minEach int) int {
	return r.bound(r.Uvarint(), minEach)
}

// DecimalCount is Count for a count written as a length-prefixed
// decimal string, in the one form strconv.Itoa writes: a leading zero
// fails like an overlong uvarint does.
func (r *Reader) DecimalCount(minEach int) int {
	s := r.Bytes(20)
	if r.err != nil {
		return 0
	}
	n, err := strconv.ParseUint(string(s), 10, 64)
	if err != nil || len(s) > 1 && s[0] == '0' {
		r.Fail(fmt.Errorf("frame: bad decimal count %q", s))
		return 0
	}
	return r.bound(n, minEach)
}

func (r *Reader) bound(n uint64, minEach int) int {
	if r.err == nil && n > uint64(len(r.b)/minEach) {
		r.Fail(fmt.Errorf("%w: %d", ErrCount, n))
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string of at most max bytes and
// returns a view into the input.
func (r *Reader) Bytes(max int) []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(max) {
		r.Fail(fmt.Errorf("%w: %d > %d", ErrTooLong, n, max))
		return nil
	}
	if n > uint64(len(r.b)) {
		r.Fail(ErrTruncated)
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

// String reads a length-prefixed string of at most max bytes.
func (r *Reader) String(max int) string { return string(r.Bytes(max)) }

// Uint64 reads a little-endian uint64.
func (r *Reader) Uint64() uint64 {
	if r.err == nil && len(r.b) < 8 {
		r.Fail(ErrTruncated)
	}
	if r.err != nil {
		return 0
	}
	x := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return x
}

// Float64 reads a float written by AppendFloat64, bit for bit.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Float64s reads a slice written by AppendFloat64s into a fresh slice.
// Its count is bounded by Count(8), so it may size the allocation.
func (r *Reader) Float64s() []float64 {
	n := r.Count(8)
	if r.err != nil {
		return nil
	}
	xs := make([]float64, n)
	b := r.b
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	r.b = b
	return xs
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err == nil && len(r.b) < 1 {
		r.Fail(ErrTruncated)
	}
	if r.err != nil {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}
