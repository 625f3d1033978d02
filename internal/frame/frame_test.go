package frame

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestAppendAndReadRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 300)
	b = AppendString(b, "kind")
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendUvarint(b, 2) // count
	b = AppendString(b, "a")
	b = AppendString(b, "")
	b = append(b, 8, 7, 6, 5, 4, 3, 2, 1, 0x42)

	r := NewReader(b)
	if got := r.Uvarint(); got != 300 {
		t.Errorf("Uvarint = %d, want 300", got)
	}
	if got := r.String(16); got != "kind" {
		t.Errorf("String = %q", got)
	}
	if got := r.Bytes(16); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %x", got)
	}
	n := r.Count(1)
	var ss []string
	for i := 0; i < n; i++ {
		ss = append(ss, r.String(16))
	}
	if len(ss) != 2 || ss[0] != "a" || ss[1] != "" {
		t.Errorf("strings = %q", ss)
	}
	if got := r.Uint64(); got != 0x0102030405060708 {
		t.Errorf("Uint64 = %#x", got)
	}
	if got := r.Byte(); got != 0x42 {
		t.Errorf("Byte = %#x", got)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done = %v", err)
	}
}

func TestFloat64sRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff8000000000001)
	xs := []float64{nan, math.Inf(-1), math.Copysign(0, -1), 2.5}
	b := AppendFloat64s(AppendFloat64(nil, nan), xs)
	b = AppendFloat64s(b, nil)
	r := NewReader(b)
	if got := r.Float64(); math.Float64bits(got) != math.Float64bits(nan) {
		t.Errorf("Float64 = %x", math.Float64bits(got))
	}
	got := r.Float64s()
	if len(got) != len(xs) {
		t.Fatalf("Float64s = %v", got)
	}
	for i := range xs {
		if math.Float64bits(got[i]) != math.Float64bits(xs[i]) {
			t.Errorf("element %d: %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(xs[i]))
		}
	}
	if empty := r.Float64s(); len(empty) != 0 {
		t.Errorf("empty Float64s = %v", empty)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done = %v", err)
	}
	b[9] = 0xaa // the first element's first byte: the result is a copy
	if math.Float64bits(got[0]) != math.Float64bits(nan) {
		t.Error("Float64s aliases its input")
	}
}

func TestUvarintLen(t *testing.T) {
	for _, x := range []uint64{0, 1, 127, 128, 16383, 16384, 1 << 35, 1<<63 - 1, 1 << 63, ^uint64(0)} {
		if got, want := UvarintLen(x), len(AppendUvarint(nil, x)); got != want {
			t.Errorf("UvarintLen(%d) = %d, want %d", x, got, want)
		}
	}
	if got := StringLen("abc"); got != 4 {
		t.Errorf("StringLen = %d, want 4", got)
	}
}

// TestReaderRejects pins the three rules and the sticky error: each case
// reads the input one way and must fail with the named error.
func TestReaderRejects(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		read func(r *Reader)
		want error
	}{
		{"empty uvarint", nil, func(r *Reader) { r.Uvarint() }, ErrTruncated},
		{"truncated uvarint", []byte{0x80, 0x80}, func(r *Reader) { r.Uvarint() }, ErrTruncated},
		{"overlong uvarint", bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Uvarint() }, ErrUvarint},
		{"uvarint overflow", append(bytes.Repeat([]byte{0xff}, 9), 0x02), func(r *Reader) { r.Uvarint() }, ErrUvarint},
		{"non-minimal uvarint", []byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }, ErrUvarint},
		{"non-minimal length", []byte{0x81, 0x00, 'x'}, func(r *Reader) { r.Bytes(8) }, ErrUvarint},
		{"count beyond bytes left", []byte{0x80, 0x80, 0x40}, func(r *Reader) { r.Count(1) }, ErrCount},
		{"count beyond bytes left per element", []byte{3, 0, 0, 0, 0, 0}, func(r *Reader) { r.Count(2) }, ErrCount},
		{"decimal count beyond bytes left", AppendString(nil, "30000000"), func(r *Reader) { r.DecimalCount(2) }, ErrCount},
		{"length over max", AppendString(nil, "toolong"), func(r *Reader) { r.String(3) }, ErrTooLong},
		{"length beyond bytes left", []byte{5, 'a', 'b'}, func(r *Reader) { r.Bytes(16) }, ErrTruncated},
		{"short uint64", []byte{1, 2, 3}, func(r *Reader) { r.Uint64() }, ErrTruncated},
		{"short float64", []byte{1, 2, 3}, func(r *Reader) { r.Float64() }, ErrTruncated},
		{"float count beyond bytes left", AppendFloat64(AppendUvarint(nil, 2), 1), func(r *Reader) { r.Float64s() }, ErrCount},
		{"no byte", nil, func(r *Reader) { r.Byte() }, ErrTruncated},
		{"trailing bytes", []byte{1, 2}, func(r *Reader) { r.Byte() }, ErrTrailing},
		{"sticky", []byte{0x80, 0x00, 1, 2, 3}, func(r *Reader) {
			r.Uvarint()
			if r.Byte() != 0 || r.String(8) != "" || r.Count(1) != 0 {
				panic("read after a failure returned data")
			}
		}, ErrUvarint},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := NewReader(c.in)
			c.read(&r)
			if err := r.Done(); !errors.Is(err, c.want) {
				t.Fatalf("Done = %v, want %v", err, c.want)
			}
		})
	}
}

// TestCountBoundsAllocation: the count the rule admits can size an
// allocation of at most the input's length in elements.
func TestCountBoundsAllocation(t *testing.T) {
	b := AppendUvarint(nil, 4)
	b = append(b, 1, 2, 3, 4)
	r := NewReader(b)
	if n := r.Count(1); n != 4 || r.Err() != nil {
		t.Fatalf("Count = %d, %v; want 4, nil", n, r.Err())
	}
	r = NewReader(b)
	if n := r.Count(2); n != 0 || !errors.Is(r.Err(), ErrCount) {
		t.Fatalf("Count(2) = %d, %v; want 0, ErrCount", n, r.Err())
	}
}

// TestReaderDoesNotAllocate: a Reader lives on the decoder's stack.
func TestReaderDoesNotAllocate(t *testing.T) {
	b := AppendBytes(AppendUvarint(nil, 7), []byte("payload"))
	allocs := testing.AllocsPerRun(100, func() {
		r := NewReader(b)
		r.Uvarint()
		r.Bytes(16)
		if r.Done() != nil {
			t.Fatal("decode failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("decode allocated %v times", allocs)
	}
}
