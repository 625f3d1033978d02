// Package trace follows one piece of despatched work across the
// Consumer Grid: a trace ID is minted when a controller despatches a
// part, travels in jxtaserve message headers to the hosting peer, and
// every stage — despatch, transfer, remote execute, per-unit work,
// result collection — records a span against it. The paper's Triana GUI
// "monitors remote workflow fragments end-to-end" (§§3–4); this package
// is the GUI-less equivalent the /traces page and trianactl render.
//
// Spans form a tree through parent links. A Recorder keeps a bounded
// ring of completed spans — observability must never become the memory
// leak it exists to find — so long-running daemons keep only the most
// recent window.
package trace

import (
	"encoding/binary"
	"encoding/hex"
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Header names used to propagate trace context through jxtaserve
// message envelopes (the control-plane XML headers).
const (
	HeaderTrace = "trace"
	HeaderSpan  = "span"
)

// idSeed is process-unique entropy so two daemons minting IDs at the
// same instant do not collide; idCounter makes IDs unique in-process
// without any shared lock.
var (
	idSeed    = maphash.MakeSeed()
	idCounter atomic.Uint64
)

// newID mints a unique ID of 16 lowercase hex digits. scope
// distinguishes trace IDs from span IDs so the two sequences never
// alias. The hash input is built on the stack, so the returned string
// is the only allocation.
func newID(scope string) string {
	var in [32]byte
	b := append(in[:0], scope...)
	b = binary.LittleEndian.AppendUint64(b, idCounter.Add(1))
	b = binary.LittleEndian.AppendUint64(b, uint64(time.Now().UnixNano()))
	var sum [8]byte
	binary.BigEndian.PutUint64(sum[:], maphash.Bytes(idSeed, b))
	var id [16]byte
	hex.Encode(id[:], sum[:])
	return string(id[:])
}

// NewTraceID mints a trace identifier for a new despatch.
func NewTraceID() string { return newID("trace") }

// Span is one completed stage of a traced despatch.
type Span struct {
	TraceID string
	SpanID  string
	Parent  string // SpanID of the parent stage, "" at the root
	Name    string // stage name: despatch, transfer, execute, unit:<task>, result
	Peer    string // peer that performed the stage
	Start   time.Time
	End     time.Time
	Err     string            // non-empty when the stage failed
	Attrs   map[string]string // free-form stage attributes
}

// Duration is the span's wall-clock extent.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Active is a span under construction; End completes it into the
// recorder. An Active is owned by one goroutine.
type Active struct {
	rec   *Recorder
	span  Span
	ended bool
}

// SpanID exposes the identifier so children can link to it (including
// children on a remote peer, via Inject/Extract).
func (a *Active) SpanID() string {
	if a == nil {
		return ""
	}
	return a.span.SpanID
}

// TraceID exposes the trace this span belongs to.
func (a *Active) TraceID() string {
	if a == nil {
		return ""
	}
	return a.span.TraceID
}

// SetAttr attaches a key/value to the span.
func (a *Active) SetAttr(k, v string) {
	if a == nil {
		return
	}
	if a.span.Attrs == nil {
		a.span.Attrs = make(map[string]string, 4)
	}
	a.span.Attrs[k] = v
}

// Fail records the stage error reported at End.
func (a *Active) Fail(err error) {
	if a == nil || err == nil {
		return
	}
	a.span.Err = err.Error()
}

// End completes the span and commits it to the recorder. Idempotent.
func (a *Active) End() {
	if a == nil || a.ended {
		return
	}
	a.ended = true
	a.span.End = time.Now()
	a.rec.commit(a.span)
}

// Recorder keeps the most recent completed spans in a fixed ring.
type Recorder struct {
	mu    sync.Mutex
	ring  []Span
	next  int
	total uint64
}

// DefaultCapacity bounds the default recorder's span window.
const DefaultCapacity = 4096

// NewRecorder creates a recorder retaining up to capacity spans
// (capacity <= 0 selects DefaultCapacity).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{ring: make([]Span, 0, capacity)}
}

var (
	defaultRec     *Recorder
	defaultRecOnce sync.Once
)

// Default returns the process-wide recorder every subsystem records to,
// mirroring how metrics.Default aggregates the process's series.
func Default() *Recorder {
	defaultRecOnce.Do(func() { defaultRec = NewRecorder(DefaultCapacity) })
	return defaultRec
}

// Start opens a span. traceID "" mints a fresh trace; parent "" marks a
// root span. A nil recorder returns a nil Active, and every Active
// method tolerates nil, so call sites need no guards.
func (r *Recorder) Start(traceID, parent, name, peer string) *Active {
	if r == nil {
		return nil
	}
	if traceID == "" {
		traceID = NewTraceID()
	}
	return &Active{rec: r, span: Span{
		TraceID: traceID,
		SpanID:  newID("span"),
		Parent:  parent,
		Name:    name,
		Peer:    peer,
		Start:   time.Now(),
	}}
}

// commit stores a completed span, overwriting the oldest when full.
func (r *Recorder) commit(s Span) {
	r.mu.Lock()
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, s)
	} else {
		r.ring[r.next] = s
		r.next = (r.next + 1) % cap(r.ring)
	}
	r.total++
	r.mu.Unlock()
}

// Len reports the spans currently retained.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ring)
}

// Total reports every span ever committed, including evicted ones.
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Spans snapshots the retained spans, oldest first.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// Trace returns the retained spans of one trace, in start order with
// parents before children when starts tie.
func (r *Recorder) Trace(traceID string) []Span {
	all := r.Spans()
	out := all[:0:0]
	for _, s := range all {
		if s.TraceID == traceID {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].SpanID == out[j].Parent
	})
	return out
}

// TraceIDs lists the distinct trace IDs retained, most recent first.
func (r *Recorder) TraceIDs() []string {
	all := r.Spans()
	seen := make(map[string]bool, len(all))
	var out []string
	for i := len(all) - 1; i >= 0; i-- {
		id := all[i].TraceID
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// Inject writes trace context into a header map (the jxtaserve message
// envelope). A nil Active injects nothing.
func Inject(a *Active, set func(k, v string)) {
	if a == nil {
		return
	}
	set(HeaderTrace, a.TraceID())
	set(HeaderSpan, a.SpanID())
}

// Extract reads trace context from a header getter; both values are ""
// when the message carried no trace.
func Extract(get func(k string) string) (traceID, parentSpan string) {
	return get(HeaderTrace), get(HeaderSpan)
}
