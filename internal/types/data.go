// Package types implements the built-in data types that flow between
// Triana units in the Consumer Grid, mirroring the type system described
// in §3.1 of the paper: a set of concrete numeric, signal, image, text and
// tabular types, a type registry with a subtype hierarchy used for
// connection type-checking, and a compact binary wire codec used when data
// crosses peer boundaries.
//
// The zero value of every concrete type is usable; the codec round-trips
// every type exactly (floats bit-for-bit). Values are written with the
// frame package's Append helpers and read through one frame.Reader, so a
// datum from an untrusted peer meets the same rules as every other
// record: minimal uvarints, bounded lengths, and counts the bytes left
// can back. Decoding is canonical (Marshal∘Unmarshal is the identity on
// every input Unmarshal accepts), and decoded values never alias the
// input bytes.
package types

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"consumergrid/internal/frame"
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

	// encode appends the body of the value (without the type-name
	// header) to b.
	encode(b []byte) ([]byte, error)

	// size is the exact length of the body encode appends.
	size() int
}

// decoder reads a value body written by encode. It reads straight
// through and leaves failures on r, whose error is sticky.
type decoder func(r *frame.Reader) Data

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

// ErrUnknownType is returned by Unmarshal when the input names a type
// that has not been registered in this process.
var ErrUnknownType = errors.New("types: unknown type name in stream")

// maxNameLen bounds the type-name header.
const maxNameLen = 256

// Marshal encodes d, including its type-name header, to a fresh byte
// slice of exactly Size(d) bytes: one allocation, no growth.
func Marshal(d Data) ([]byte, error) { return AppendMarshal(nil, d) }

// AppendMarshal appends the encoding Marshal returns to b, growing b
// once by exactly Size(d) when it lacks the room.
func AppendMarshal(b []byte, d Data) ([]byte, error) {
	if d == nil {
		return nil, errors.New("types: cannot encode nil Data")
	}
	return d.encode(frame.AppendString(slices.Grow(b, Size(d)), d.TypeName()))
}

// Size is the length of d's encoding, type-name header included:
// len(Marshal(d)) for every d Marshal accepts, computed without
// encoding. Size(nil) is 0.
func Size(d Data) int {
	if d == nil {
		return 0
	}
	return frame.StringLen(d.TypeName()) + d.size()
}

// Unmarshal decodes one value from p, requiring that the whole of p is
// consumed.
func Unmarshal(p []byte) (Data, error) {
	r := frame.NewReader(p)
	d := Decode(&r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return d, nil
}

// Decode reads one value, type-name header first, from r, so a reader
// of several concatenated values decodes them in sequence. A failure is
// left on r and the result is then nil.
func Decode(r *frame.Reader) Data {
	name := r.Bytes(maxNameLen)
	if r.Err() != nil {
		return nil
	}
	reg.mu.RLock()
	dec, ok := reg.decoders[string(name)]
	reg.mu.RUnlock()
	if !ok {
		r.Fail(fmt.Errorf("%w: %q", ErrUnknownType, name))
		return nil
	}
	if d := dec(r); r.Err() == nil {
		return d
	}
	return nil
}

// readInt reads an int field written as a uvarint of uint64(v). A value
// this platform's int cannot hold fails, so the field re-encodes to the
// bytes it was read from.
func readInt(r *frame.Reader) int {
	x := r.Uvarint()
	if v := int(x); uint64(v) == x {
		return v
	}
	r.Fail(fmt.Errorf("types: integer %d out of range", x))
	return 0
}

// shapeHolds reports whether a rows x cols shape is non-negative and
// has exactly n cells, without the product overflowing.
func shapeHolds(rows, cols, n int) bool {
	if rows < 0 || cols < 0 {
		return false
	}
	hi, lo := bits.Mul(uint(rows), uint(cols))
	return hi == 0 && lo == uint(n)
}
