package types

import (
	"bytes"
	"errors"
	"math/bits"
	"os"
	"path/filepath"
	"testing"

	"consumergrid/internal/frame"
)

// checkFixpoint fails unless p is rejected or re-encodes to itself,
// and Size reads its length off the decoded value.
func checkFixpoint(t *testing.T, p []byte) {
	t.Helper()
	d, err := Unmarshal(p)
	if err != nil {
		return
	}
	if n := Size(d); n != len(p) {
		t.Fatalf("accepted %x (%d bytes) but Size says %d", p, len(p), n)
	}
	again, err := Marshal(d)
	if err != nil {
		t.Fatalf("accepted %x but cannot re-encode it: %v", p, err)
	}
	if !bytes.Equal(again, p) {
		t.Fatalf("accepted non-canonical %x, which re-encodes to %x", p, again)
	}
}

// TestFixpointCounterexamples: two inputs that decode to a value whose
// encoding differs from them must be refused, so equal data has equal
// bytes (chunk addresses and quorum digests depend on it).
func TestFixpointCounterexamples(t *testing.T) {
	control := func(keys ...string) []byte {
		b := frame.AppendUvarint(append(frame.AppendString(nil, NameControl), byte(CtlRewire)), 7)
		b = frame.AppendUvarint(b, uint64(len(keys)))
		for _, k := range keys {
			b = frame.AppendString(frame.AppendString(b, k), "v")
		}
		return b
	}
	// The type-name length 21 written in two bytes instead of one.
	text := append([]byte{0x80 | byte(len(NameText)), 0x00}, NameText...)
	text = frame.AppendString(text, "hi")
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"non-minimal name length", text, frame.ErrUvarint},
		{"unsorted attribute keys", control("peer", "group"), errAttrOrder},
		{"duplicate attribute keys", control("peer", "peer"), errAttrOrder},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkFixpoint(t, c.in)
			if _, err := Unmarshal(c.in); !errors.Is(err, c.want) {
				t.Fatalf("Unmarshal = %v, want %v", err, c.want)
			}
		})
	}
	if _, err := Unmarshal(control("group", "peer")); err != nil {
		t.Fatalf("sorted keys refused: %v", err)
	}
}

// TestShapeOverflowRefused: a Matrix or Image whose dimensions multiply
// past the int range can claim as many cells as the overflowed product,
// and At then indexes out of range. Such a shape is invalid, is not
// encoded, and is refused on decode.
func TestShapeOverflowRefused(t *testing.T) {
	half := 1 << (bits.UintSize / 2) // half*half wraps to 0
	if (&Matrix{Rows: half, Cols: half}).Valid() {
		t.Error("Matrix with an overflowing shape and no cells is valid")
	}
	if _, err := Marshal(&Image{W: half, H: half}); err == nil {
		t.Error("encoded an Image with an overflowing shape")
	}

	shape := func(name string, dims ...uint64) func(cells int) []byte {
		return func(cells int) []byte {
			b := frame.AppendString(nil, name)
			for _, d := range dims {
				b = frame.AppendUvarint(b, d)
			}
			return frame.AppendFloat64s(b, make([]float64, cells))
		}
	}
	cases := []struct {
		name  string
		frame []byte
	}{
		{"matrix 2^32 x 2^32, 0 cells", shape(NameMatrix, 1<<32, 1<<32)(0)},
		{"matrix 3 x (2^64/3+1), 2 cells", shape(NameMatrix, 3, 1<<64/3+1)(2)},
		{"image 2^32 x 2^32, 0 pixels", shape(NameImage, 1<<32, 1<<32, 0)(0)},
		{"image 2^33 x 2^31, 0 pixels", shape(NameImage, 1<<33, 1<<31, 0)(0)},
	}
	for _, c := range cases {
		if d, err := Unmarshal(c.frame); err == nil {
			t.Errorf("%s: decoded to %T with Valid shape", c.name, d)
		}
	}
}

// TestDecodeDoesNotAlias: payload buffers are pooled and chunk-cached,
// so a decoded value must not change when its input bytes are reused.
func TestDecodeDoesNotAlias(t *testing.T) {
	ctl := &ControlSignal{Kind: CtlStart}
	ctl.SetAttr("k", "v")
	for _, d := range []Data{
		&Text{S: "text"},
		&Table{Columns: []string{"c"}, Rows: [][]string{{"cell"}}},
		ctl,
		NewSampleSet(1, []float64{1, 2}),
	} {
		p, err := Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Unmarshal(p)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := Marshal(got)
		for i := range p {
			p[i] = 0xff
		}
		if after, _ := Marshal(got); !bytes.Equal(after, want) {
			t.Errorf("%s: decoded value changed when its input was overwritten", d.TypeName())
		}
	}
}

// FuzzUnmarshal: every input Unmarshal accepts re-encodes to itself.
func FuzzUnmarshal(f *testing.F) {
	seeds, _ := filepath.Glob(filepath.Join("testdata", "golden", "*.bin"))
	for _, path := range seeds {
		p, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	f.Fuzz(checkFixpoint)
}
