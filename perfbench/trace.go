package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"serpentine/internal/core"
	"serpentine/internal/fleet"
)

// tracer records one span per timed public call made from the
// benchmark's own files. It belongs to one goroutine. A nil *tracer is
// the untraced mode: every method is a no-op, so the workloads call
// the program the same way in both modes.
//
// Spans nest on a stack. When a span ends, its duration is charged to
// its name's inclusive time, the duration minus the time its children
// covered to its self time, and the duration to its parent's child
// time. Aggregates cover every span; the span records themselves are
// kept in memory up to keep and written out at exit.
type tracer struct {
	epoch   time.Time
	stack   []frame
	spans   []span
	keep    int
	dropped int
	nextID  int64
	stats   map[string]*spanStat
	layers  map[string]*layerStat
	cell    string
}

type frame struct {
	id      int64
	idx     int // index into spans, -1 when not kept
	name    string
	layer   string
	start   time.Duration
	childNs time.Duration
}

// span is one recorded call: name, start and end on the tracer's
// clock, the enclosing span, and the cell or request it served.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Cell   string `json:"cell,omitempty"`
	Req    int64  `json:"req"`
}

type spanStat struct {
	calls      int64
	incl, self time.Duration
	locates    int64 // core spans: requests scheduled
}

// layerStat is one layer's time: self time, and inclusive time counted
// only for the layer's outermost spans, so a layer calling into itself
// (fleet.Fleet.Run -> fleet.Router.Score) is not counted twice.
type layerStat struct {
	self, incl time.Duration
}

func newTracer(keep int) *tracer {
	t := &tracer{epoch: time.Now(), keep: keep}
	t.reset()
	return t
}

// begin opens a span; req is the request ordinal or -1.
func (t *tracer) begin(name string, req int64) {
	if t == nil {
		return
	}
	t.nextID++
	f := frame{id: t.nextID, idx: -1, name: name, layer: layerOf(name), start: time.Since(t.epoch)}
	if len(t.spans) < t.keep {
		var parent int64
		if len(t.stack) > 0 {
			parent = t.stack[len(t.stack)-1].id
		}
		f.idx = len(t.spans)
		t.spans = append(t.spans, span{ID: f.id, Parent: parent, Name: name, Start: int64(f.start), Cell: t.cell, Req: req})
	} else {
		t.dropped++
	}
	t.stack = append(t.stack, f)
}

// end closes the innermost span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now - f.start
	if f.idx >= 0 {
		t.spans[f.idx].End = int64(now)
	}
	st := t.stats[f.name]
	if st == nil {
		st = &spanStat{}
		t.stats[f.name] = st
	}
	st.calls++
	st.incl += d
	st.self += d - f.childNs
	ls := t.layers[f.layer]
	if ls == nil {
		ls = &layerStat{}
		t.layers[f.layer] = ls
	}
	ls.self += d - f.childNs
	if len(t.stack) == 0 || t.stack[len(t.stack)-1].layer != f.layer {
		ls.incl += d
	}
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].childNs += d
	}
}

// addLocates adds n scheduled requests to the named span's aggregate.
func (t *tracer) addLocates(name string, n int) {
	if t == nil {
		return
	}
	st := t.stats[name]
	if st == nil {
		st = &spanStat{}
		t.stats[name] = st
	}
	st.locates += int64(n)
}

// setCell tags the spans that follow with a cell label.
func (t *tracer) setCell(cell string) {
	if t != nil {
		t.cell = cell
	}
}

// reset clears the aggregates (not the kept spans).
func (t *tracer) reset() {
	if t != nil {
		t.stats = make(map[string]*spanStat)
		t.layers = make(map[string]*layerStat)
	}
}

// stat returns the aggregate for one span name (zero when absent).
func (t *tracer) stat(name string) spanStat {
	if t == nil || t.stats[name] == nil {
		return spanStat{}
	}
	return *t.stats[name]
}

// layerOf maps a span name to its layer: the text before the first
// dot ("core.Scheduler.Schedule" -> "core").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// layer returns one layer's aggregate (zero when absent).
func (t *tracer) layer(name string) layerStat {
	if t == nil || t.layers[name] == nil {
		return layerStat{}
	}
	return *t.layers[name]
}

// writeSpans writes the kept spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanCount is the number of spans the aggregates cover.
func (t *tracer) spanCount() int64 {
	var n int64
	for _, st := range t.stats {
		n += st.calls
	}
	return n
}

// printLayers writes the per-layer table: self and inclusive host
// seconds per traced repetition, and their shares of the repetition.
func printLayers(w io.Writer, t *tracer, reps int, repSec float64) {
	names := make([]string, 0, len(t.layers))
	for l := range t.layers {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool { return t.layers[names[i]].self > t.layers[names[j]].self })
	fmt.Fprintf(w, "# %-10s %12s %12s %7s %7s\n", "layer", "self s/rep", "incl s/rep", "self%", "incl%")
	for _, l := range names {
		self := t.layers[l].self.Seconds() / float64(reps)
		incl := t.layers[l].incl.Seconds() / float64(reps)
		fmt.Fprintf(w, "# %-10s %12.6f %12.6f %6.1f%% %6.1f%%\n", l, self, incl, 100*self/repSec, 100*incl/repSec)
	}
}

// timedScheduler times every Schedule call. It forwards Name, so the
// executor's degradation chain and planning budget see the wrapped
// scheduler exactly as they would see the bare one.
type timedScheduler struct {
	inner core.Scheduler
	tr    *tracer
}

func (s timedScheduler) Name() string { return s.inner.Name() }

func (s timedScheduler) Schedule(p *core.Problem) (core.Plan, error) {
	s.tr.begin("core.Scheduler.Schedule", -1)
	s.tr.addLocates("core.Scheduler.Schedule", len(p.Requests))
	plan, err := s.inner.Schedule(p)
	s.tr.end()
	return plan, err
}

// scheduler returns the library's scheduler for the mode: nil (the
// library's own default, Auto) untraced, a timed Auto traced.
func scheduler(tr *tracer) core.Scheduler {
	if tr == nil {
		return nil
	}
	return timedScheduler{inner: core.NewAuto(), tr: tr}
}

// timedRouter times every Score call and forwards Name.
type timedRouter struct {
	inner fleet.Router
	tr    *tracer
}

func (r timedRouter) Name() string { return r.inner.Name() }

func (r timedRouter) Score(ordinal, shards int, cands []fleet.Candidate, scores []float64) {
	r.tr.begin("fleet.Router.Score", int64(ordinal))
	r.inner.Score(ordinal, shards, cands, scores)
	r.tr.end()
}

func router(r fleet.Router, tr *tracer) fleet.Router {
	if tr == nil {
		return r
	}
	return timedRouter{inner: r, tr: tr}
}
