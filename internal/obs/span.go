package obs

import (
	"strconv"
	"sync"
)

// The span layer is the causal half of the observability subsystem:
// where counters say *how often* and histograms say *how long*, spans
// say *why* — every span covers one interval of the virtual timeline,
// names the operation that filled it, and points at the span that
// caused it. Like the rest of the package, spans never read wall
// time: start and end stamps are virtual-clock seconds supplied by
// the caller, and IDs come from per-trace counters, never from rand.
// A single-threaded simulation therefore produces the exact same span
// sequence on every run, which is what lets results/trace.json be
// committed and diffed like the numeric tables.

// Span is one completed operation on the virtual timeline.
type Span struct {
	// Trace groups the spans of one simulation run (or one request
	// lifecycle, at the recorder's discretion). IDs start at 1.
	Trace uint64
	// ID identifies the span within its trace, from a per-trace
	// counter starting at 1 — deterministic by construction.
	ID uint64
	// Parent is the causing span's ID within the same trace, 0 for a
	// root.
	Parent uint64
	// Name labels the operation ("batch", "serve", "locate", ...).
	Name string
	// StartSec and EndSec bound the span on the virtual clock.
	StartSec float64
	EndSec   float64
	// Lane is the export lane (Chrome "tid"): 0 for run-level spans,
	// 1+driveID for per-drive work, so parallel drives render as
	// parallel rows.
	Lane int
	// Attrs are key-value annotations, in recording order.
	Attrs []Label
}

// DurationSec is the span's virtual duration.
func (s Span) DurationSec() float64 { return s.EndSec - s.StartSec }

// Tracer is a bounded, deterministic store of completed spans: a Ring
// retaining the most recent cap spans, in End order. It is safe for
// concurrent use; within one single-threaded simulation the store
// order (and every ID) is a pure function of the run. A nil *Tracer
// is a valid no-op recorder: StartTrace on it returns a nil handle
// whose methods all no-op, so instrumentation points never branch on
// whether tracing is enabled.
type Tracer struct {
	spans  *Ring[Span]
	mu     sync.Mutex
	traces uint64
}

// NewTracer returns a tracer retaining the most recent capSpans
// completed spans (minimum 1).
func NewTracer(capSpans int) *Tracer { return &Tracer{spans: NewRing[Span](capSpans)} }

// store returns the span ring, nil on a nil *Tracer.
func (t *Tracer) store() *Ring[Span] {
	if t == nil {
		return nil
	}
	return t.spans
}

// StartTrace opens a new trace and returns its handle. Trace IDs are
// allocated from the tracer's counter, starting at 1. On a nil tracer
// it returns nil, which is itself a valid no-op handle.
func (t *Tracer) StartTrace() *TraceHandle {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traces++
	return &TraceHandle{t: t, id: t.traces}
}

// Record stores one externally-built completed span, evicting the
// oldest when full. Normal instrumentation goes through StartTrace /
// Start / End; Record exists for replaying spans collected elsewhere
// (the sweep cells) into a live tracer, and for tests.
func (t *Tracer) Record(s Span) { t.store().Add(s) }

// Spans returns the retained spans, oldest first.
func (t *Tracer) Spans() []Span { return t.store().Items() }

// Total returns how many spans were ever recorded.
func (t *Tracer) Total() int64 { return t.store().Total() }

// Dropped returns the number of evicted spans.
func (t *Tracer) Dropped() int64 { return t.store().Dropped() }

// TraceHandle allocates span IDs for one trace. It is safe for
// concurrent use, though deterministic ID assignment of course
// requires deterministic call order. A nil handle no-ops.
type TraceHandle struct {
	t    *Tracer
	id   uint64
	mu   sync.Mutex
	next uint64
}

// ID returns the trace ID (0 on a nil handle).
func (h *TraceHandle) ID() uint64 {
	if h == nil {
		return 0
	}
	return h.id
}

// spanPool recycles SpanHandle structs between Start and End. The
// handles are pure scratch — Record copies the completed Span value
// (the ring takes ownership of the Attrs backing, which is why reuse
// resets Attrs to nil instead of truncating) — so pooling them makes
// an instrumented run's span overhead one allocation per span with
// attributes and zero without, instead of one per Start.
var spanPool = sync.Pool{New: func() any { return new(SpanHandle) }}

// Start opens a span at startSec. parent may be nil (a root span);
// a child inherits its parent's lane until Lane overrides it. The
// span is not stored until End is called.
//
// The returned handle is only valid until its End: handles are pooled
// and reused by later Starts, so holding one past End (for a late
// Attr, a second End, or as a parent of a later span) corrupts an
// unrelated span. Every parent must outlive its children's Starts.
func (h *TraceHandle) Start(name string, parent *SpanHandle, startSec float64, attrs ...Label) *SpanHandle {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	h.next++
	id := h.next
	h.mu.Unlock()
	sp := spanPool.Get().(*SpanHandle)
	sp.t = h.t
	sp.done = false
	sp.s = Span{Trace: h.id, ID: id, Name: name, StartSec: startSec}
	if parent != nil {
		sp.s.Parent = parent.s.ID
		sp.s.Lane = parent.s.Lane
	}
	if len(attrs) > 0 {
		sp.s.Attrs = append([]Label(nil), attrs...)
	}
	return sp
}

// SpanHandle is a span under construction. All methods are nil-safe
// no-ops so instrumentation points need no enabled/disabled branches.
type SpanHandle struct {
	t    *Tracer
	s    Span
	done bool
}

// Attr appends one key-value annotation and returns the handle for
// chaining. Keys may repeat; attributes keep recording order.
func (sp *SpanHandle) Attr(key, value string) *SpanHandle {
	if sp == nil || sp.done {
		return sp
	}
	sp.s.Attrs = append(sp.s.Attrs, Label{Key: key, Value: value})
	return sp
}

// AttrFloat records a float attribute with deterministic formatting.
func (sp *SpanHandle) AttrFloat(key string, v float64) *SpanHandle {
	return sp.Attr(key, formatFloat(v))
}

// AttrInt records an integer attribute.
func (sp *SpanHandle) AttrInt(key string, v int) *SpanHandle {
	if sp == nil || sp.done {
		return sp
	}
	return sp.Attr(key, strconv.Itoa(v))
}

// Lane assigns the span's export lane (children started afterwards
// inherit it).
func (sp *SpanHandle) Lane(n int) *SpanHandle {
	if sp == nil || sp.done {
		return sp
	}
	sp.s.Lane = n
	return sp
}

// SpanID returns the span's ID within its trace (0 on nil).
func (sp *SpanHandle) SpanID() uint64 {
	if sp == nil {
		return 0
	}
	return sp.s.ID
}

// End closes the span at endSec, commits it to the tracer's store,
// and returns the handle to the pool — the handle must not be used
// afterwards (see Start). A second End before the handle is reissued
// is still a no-op, as is End on a nil handle.
func (sp *SpanHandle) End(endSec float64) {
	if sp == nil || sp.done {
		return
	}
	sp.done = true
	sp.s.EndSec = endSec
	t := sp.t
	s := sp.s
	sp.t = nil
	sp.s.Attrs = nil // the ring owns the backing now
	spanPool.Put(sp)
	t.Record(s)
}
