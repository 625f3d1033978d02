package jxtaserve

import (
	"bytes"
	"testing"

	"consumergrid/internal/trace"
)

// Trace context rides the envelope headers; the binary framing path
// must carry it byte-exactly so a despatch span on the controller links
// to the execute span on the host.
func TestTraceHeadersSurviveFraming(t *testing.T) {
	rec := trace.NewRecorder(8)
	span := rec.Start("", "", "transfer", "ctl")
	m := &Message{Kind: KindRPC, Payload: []byte("body")}
	m.SetHeader("method", "triana.run")
	trace.Inject(span, m.SetHeader)

	var buf bytes.Buffer
	if err := WriteBinaryMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinaryMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	traceID, parent := trace.Extract(got.Header)
	if traceID != span.TraceID() || parent != span.SpanID() {
		t.Errorf("extracted (%q, %q), want (%q, %q)",
			traceID, parent, span.TraceID(), span.SpanID())
	}
	if got.Header("method") != "triana.run" {
		t.Errorf("method header = %q", got.Header("method"))
	}
}

func TestWireCountersAccumulate(t *testing.T) {
	outBefore, inBefore := wireMsgsOut.Value(), wireMsgsIn.Value()
	bytesOutBefore := wireBytesOut.Value()

	var buf bytes.Buffer
	m := &Message{Kind: KindPipeData, Payload: []byte("0123456789")}
	if err := WriteBinaryMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	framed := int64(buf.Len())
	if _, err := ReadBinaryMessage(&buf); err != nil {
		t.Fatal(err)
	}

	if got := wireMsgsOut.Value() - outBefore; got != 1 {
		t.Errorf("messages_sent grew by %d, want 1", got)
	}
	if got := wireMsgsIn.Value() - inBefore; got != 1 {
		t.Errorf("messages_recv grew by %d, want 1", got)
	}
	// Counters are process-global, so concurrent tests may add their own
	// traffic on top; this frame's bytes are at minimum accounted for.
	if got := wireBytesOut.Value() - bytesOutBefore; got < framed {
		t.Errorf("bytes_sent grew by %d, want >= %d", got, framed)
	}
}
