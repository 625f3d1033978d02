package health

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"time"

	"consumergrid/internal/frame"
)

func TestExportRestoreRoundTrip(t *testing.T) {
	src := New(Options{})
	src.ReportSuccess("good", time.Millisecond)
	for i := 0; i < 6; i++ {
		src.ReportFailure("bad")
	}
	dst := New(Options{})
	n, err := dst.Restore(src.Export())
	if err != nil || n != 2 {
		t.Fatalf("Restore = %d, %v; want 2, nil", n, err)
	}
	for _, id := range []string{"good", "bad"} {
		if dst.Score(id) != src.Score(id) || dst.State(id) != src.State(id) {
			t.Errorf("%s: restored score %v state %v, want %v %v",
				id, dst.Score(id), dst.State(id), src.Score(id), src.State(id))
		}
	}
}

// TestRestoreRejectsOverlongUvarint: a checkpoint record whose breaker
// state is 11 bytes of 0xff must fail, not slice past the record.
func TestRestoreRejectsOverlongUvarint(t *testing.T) {
	b := frame.AppendUvarint(nil, 1)
	b = frame.AppendString(b, "p")
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(0.5))
	b = append(b, bytes.Repeat([]byte{0xff}, 11)...)
	if _, err := New(Options{}).Restore(b); err == nil {
		t.Fatal("record with an overlong uvarint restored")
	}
}

// TestRestoreRejectsOutOfRangeState: a breaker state that wraps to a
// negative State must be refused as implausible, not restored.
func TestRestoreRejectsOutOfRangeState(t *testing.T) {
	b := frame.AppendUvarint(nil, 1)
	b = frame.AppendString(b, "p")
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(0.5))
	b = frame.AppendUvarint(b, 1<<63) // state
	b = frame.AppendUvarint(b, 0)     // consecutive failures
	b = frame.AppendUvarint(b, 0)     // cooldown
	b = append(b, 0)                  // flags
	tr := New(Options{})
	if _, err := tr.Restore(b); err == nil {
		t.Fatalf("restored breaker state %v", tr.State("p"))
	}
}
