package trace

import (
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestSpanTreeAndTraceOrdering(t *testing.T) {
	r := NewRecorder(16)
	root := r.Start("", "", "despatch", "ctl")
	if root.TraceID() == "" || root.SpanID() == "" {
		t.Fatal("root span minted empty IDs")
	}
	child := r.Start(root.TraceID(), root.SpanID(), "transfer", "ctl")
	child.SetAttr("to", "w1")
	child.End()
	root.SetAttr("job", "j1")
	root.End()

	spans := r.Trace(root.TraceID())
	if len(spans) != 2 {
		t.Fatalf("trace has %d spans, want 2", len(spans))
	}
	if spans[0].Name != "despatch" || spans[1].Name != "transfer" {
		t.Errorf("start-order = %s, %s", spans[0].Name, spans[1].Name)
	}
	if spans[1].Parent != spans[0].SpanID {
		t.Errorf("child parent = %q, want %q", spans[1].Parent, spans[0].SpanID)
	}
	if spans[1].Attrs["to"] != "w1" {
		t.Errorf("attrs = %v", spans[1].Attrs)
	}
}

func TestRecorderRingBound(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 50; i++ {
		r.Start("", "", "s", "p").End()
	}
	if r.Len() != 8 {
		t.Errorf("retained %d spans, cap 8", r.Len())
	}
	if r.Total() != 50 {
		t.Errorf("total = %d, want 50", r.Total())
	}
	// The ring keeps the most recent window: 50 distinct traces went in,
	// 8 distinct trace IDs remain.
	if ids := r.TraceIDs(); len(ids) != 8 {
		t.Errorf("retained %d trace IDs, want 8", len(ids))
	}
}

func TestTraceIDsMostRecentFirst(t *testing.T) {
	r := NewRecorder(16)
	a := r.Start("", "", "a", "p")
	a.End()
	b := r.Start("", "", "b", "p")
	b.End()
	ids := r.TraceIDs()
	if len(ids) != 2 || ids[0] != b.TraceID() || ids[1] != a.TraceID() {
		t.Errorf("ids = %v, want [%s %s]", ids, b.TraceID(), a.TraceID())
	}
}

// Nil recorders and nil actives are the no-op path used when tracing is
// disabled; every method must tolerate them.
func TestNilRecorderSafety(t *testing.T) {
	var r *Recorder
	a := r.Start("", "", "x", "p")
	if a != nil {
		t.Fatal("nil recorder returned a live span")
	}
	a.SetAttr("k", "v")
	a.Fail(nil)
	a.End()
	if a.SpanID() != "" || a.TraceID() != "" {
		t.Error("nil active exposed IDs")
	}
	Inject(a, func(k, v string) { t.Errorf("nil active injected %s=%s", k, v) })
}

func TestEndIdempotent(t *testing.T) {
	r := NewRecorder(8)
	a := r.Start("", "", "x", "p")
	a.End()
	a.End()
	if r.Len() != 1 {
		t.Errorf("double End committed %d spans", r.Len())
	}
}

func TestInjectExtractRoundTrip(t *testing.T) {
	r := NewRecorder(8)
	a := r.Start("", "", "despatch", "ctl")
	headers := map[string]string{}
	Inject(a, func(k, v string) { headers[k] = v })
	traceID, parent := Extract(func(k string) string { return headers[k] })
	if traceID != a.TraceID() || parent != a.SpanID() {
		t.Errorf("round-trip = (%q, %q), want (%q, %q)", traceID, parent, a.TraceID(), a.SpanID())
	}
	// A message without trace headers extracts to empty context.
	traceID, parent = Extract(func(string) string { return "" })
	if traceID != "" || parent != "" {
		t.Errorf("no-header extract = (%q, %q)", traceID, parent)
	}
}

func TestWriteTextTreeShape(t *testing.T) {
	r := NewRecorder(16)
	root := r.Start("", "", "despatch", "ctl")
	exec := r.Start(root.TraceID(), root.SpanID(), "execute", "w1")
	unit := r.Start(root.TraceID(), exec.SpanID(), "unit:gen", "w1")
	unit.SetAttr("processed", "4")
	unit.End()
	exec.End()
	root.End()

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "trace "+root.TraceID()+"  spans=3") {
		t.Errorf("missing trace header:\n%s", out)
	}
	// Depth encodes the parent chain: despatch at one indent level,
	// execute nested under it, the unit span nested again.
	for _, want := range []string{
		"\n  despatch peer=ctl",
		"\n    execute peer=w1",
		"\n      unit:gen peer=w1",
		"processed=4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// A span whose parent got evicted from the ring must still render as a
// root of its trace instead of vanishing from the tree.
func TestWriteTextOrphanRendersAsRoot(t *testing.T) {
	r := NewRecorder(16)
	child := r.Start("tr-1", "gone-parent", "result", "ctl")
	child.End()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "result peer=ctl") {
		t.Errorf("orphan span not rendered:\n%s", b.String())
	}
}

func TestFormatSpanError(t *testing.T) {
	r := NewRecorder(8)
	a := r.Start("", "", "transfer", "ctl")
	a.Fail(errFake{})
	a.End()
	line := FormatSpan(r.Spans()[0])
	if !strings.Contains(line, `err="boom"`) {
		t.Errorf("line = %q", line)
	}
}

type errFake struct{}

func (errFake) Error() string { return "boom" }

// TestNewIDFormatAndUniqueness: IDs minted concurrently in both scopes
// never repeat, each is exactly 16 lowercase hex digits (headers carry
// them, so the length is wire bytes), and minting one allocates only
// the returned string.
func TestNewIDFormatAndUniqueness(t *testing.T) {
	const workers, perWorker = 8, 10000
	format := regexp.MustCompile(`^[0-9a-f]{16}$`)
	ids := make([][]string, 2*workers)
	var wg sync.WaitGroup
	for w := range ids {
		scope := "trace"
		if w%2 == 1 {
			scope = "span"
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ids[w] = append(ids[w], newID(scope))
			}
		}()
	}
	wg.Wait()
	seen := make(map[string]bool, 2*workers*perWorker)
	for _, batch := range ids {
		for _, id := range batch {
			if !format.MatchString(id) {
				t.Fatalf("ID %q is not 16 lowercase hex digits", id)
			}
			if seen[id] {
				t.Fatalf("ID %q minted twice", id)
			}
			seen[id] = true
		}
	}
	if allocs := testing.AllocsPerRun(1000, func() { NewTraceID() }); allocs > 1 {
		t.Errorf("NewTraceID allocates %.1f objects, want at most 1 (the string)", allocs)
	}
}
