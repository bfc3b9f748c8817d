// Package obs is the observability subsystem of the online serving
// layer: counters, gauges and latency histograms keyed by metric name
// plus labels, a hierarchical virtual-time span tracer (span.go) with
// Chrome-trace and text timeline exports (export.go), wide
// per-request events (event.go), the one bounded ring both stores sit
// on (ring.go), live introspection endpoints (http.go), and
// deterministic text dumps in Prometheus exposition format and
// expvar-style JSON.
//
// Everything here is driven by the simulator's *virtual* clock — the
// package never reads wall time, so a metrics dump is a pure function
// of the experiment that produced it and can be committed as evidence
// the way the results/ tables are. Dumps render metrics in sorted
// order for the same reason.
//
// A Registry is safe for concurrent use; the parallel sweeps give
// every cell its own registry and Merge them afterwards in spec order,
// which keeps the merged dump independent of the worker count.
package obs

import (
	"sort"
	"strings"
	"sync"
)

// Label is one name=value dimension of a metric.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metricKey renders name plus sorted labels into the canonical series
// identity, e.g. `served_total{alg="LOSS",policy="fixed-window"}`.
// Label values are escaped per the Prometheus text exposition format,
// so the identity doubles as the spec-valid rendering WriteProm emits.
func metricKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(promEscape(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// promEscape escapes a label value per the Prometheus text exposition
// format: exactly backslash, double quote and newline are escaped
// (`\\`, `\"`, `\n`); every other byte — tabs, other control bytes,
// multi-byte UTF-8 — passes through raw, as the spec requires. The
// escaping is injective, so distinct values never collide into one
// series identity.
func promEscape(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// splitKey separates a canonical series identity back into the bare
// metric name and the rendered label block ("" when unlabeled).
func splitKey(key string) (name, labelBlock string) {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i], key[i:]
	}
	return key, ""
}

// parseLabelBlock parses a rendered label block back into labels: the
// inverse of the block metricKey emits, honoring exactly the escapes
// promEscape produces (`\\`, `\"`, `\n`). An empty block parses to
// nil. It reports false on anything metricKey could not have written.
func parseLabelBlock(block string) ([]Label, bool) {
	if block == "" {
		return nil, true
	}
	if len(block) < 2 || block[0] != '{' || block[len(block)-1] != '}' {
		return nil, false
	}
	body := block[1 : len(block)-1]
	if body == "" {
		return nil, false // metricKey renders no block for zero labels
	}
	var labels []Label
	for len(body) > 0 {
		eq := strings.Index(body, `="`)
		if eq <= 0 {
			return nil, false
		}
		key := body[:eq]
		rest := body[eq+2:]
		var val strings.Builder
		i := 0
		for {
			if i >= len(rest) {
				return nil, false // unterminated value
			}
			c := rest[i]
			if c == '"' {
				break
			}
			if c == '\\' {
				if i+1 >= len(rest) {
					return nil, false
				}
				switch rest[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, false
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		labels = append(labels, Label{Key: key, Value: val.String()})
		body = rest[i+1:]
		if len(body) > 0 {
			if body[0] != ',' || len(body) == 1 {
				return nil, false
			}
			body = body[1:]
		}
	}
	return labels, true
}

// relabelKey returns the series identity with the extra labels added
// to its label set. Keys that fail to parse (never produced by
// metricKey) are returned unchanged.
func relabelKey(key string, extra []Label) string {
	name, block := splitKey(key)
	labels, ok := parseLabelBlock(block)
	if !ok {
		return key
	}
	return metricKey(name, append(labels, extra...))
}

// Counter is a monotonically increasing count.
type Counter struct {
	mu sync.Mutex
	v  int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n; negative n is ignored (counters are
// monotone by contract).
func (c *Counter) Add(n int64) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	c.v += n
	c.mu.Unlock()
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is an instantaneous value (queue depth, clock seconds).
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Add shifts the gauge by d.
func (g *Gauge) Add(d float64) {
	g.mu.Lock()
	g.v += d
	g.mu.Unlock()
}

// Max raises the gauge to v if v is larger (high-water marks).
func (g *Gauge) Max(v float64) {
	g.mu.Lock()
	if v > g.v {
		g.v = v
	}
	g.mu.Unlock()
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Registry holds a process's metrics by canonical series identity.
// The zero value is not usable; call NewRegistry.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counts[key]
	if c == nil {
		c = &Counter{}
		r.counts[key] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[key]
	if g == nil {
		g = &Gauge{}
		r.gauges[key] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[key]
	if h == nil {
		h = newHistogram()
		r.hists[key] = h
	}
	return h
}

// Merge folds every metric of b into r: counters and histograms
// accumulate, gauges sum. The sweeps label each cell's series with the
// cell coordinates, so in practice gauge series never collide and
// "sum" degenerates to "copy"; summing keeps Merge total and
// deterministic for the series that do.
func (r *Registry) Merge(b *Registry) {
	r.mergeKeyed(b, nil)
}

// MergeLabeled folds b into r like Merge, but re-keys every series
// with the extra labels added first — the fleet folds each shard's
// registry into the cell registry under shard="N", so identically
// named shard series land on distinct cluster series instead of
// summing into mush. The extra keys should be new dimensions: adding
// a key a series already carries produces a duplicate-key label block.
// With no extra labels it is exactly Merge.
func (r *Registry) MergeLabeled(b *Registry, extra ...Label) {
	r.mergeKeyed(b, extra)
}

func (r *Registry) mergeKeyed(b *Registry, extra []Label) {
	if b == nil || b == r {
		return
	}
	rekey := func(k string) string { return k }
	if len(extra) > 0 {
		rekey = func(k string) string { return relabelKey(k, extra) }
	}
	b.mu.Lock()
	type hsnap struct {
		key string
		h   *Histogram
	}
	counts := make(map[string]int64, len(b.counts))
	for k, c := range b.counts {
		counts[k] = c.Value()
	}
	gauges := make(map[string]float64, len(b.gauges))
	for k, g := range b.gauges {
		gauges[k] = g.Value()
	}
	hists := make([]hsnap, 0, len(b.hists))
	for k, h := range b.hists {
		hists = append(hists, hsnap{k, h})
	}
	b.mu.Unlock()

	for k, v := range counts {
		r.counterByKey(rekey(k)).Add(v)
	}
	for k, v := range gauges {
		r.gaugeByKey(rekey(k)).Add(v)
	}
	for _, hs := range hists {
		r.histogramByKey(rekey(hs.key)).merge(hs.h)
	}
}

func (r *Registry) counterByKey(key string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counts[key]
	if c == nil {
		c = &Counter{}
		r.counts[key] = c
	}
	return c
}

func (r *Registry) gaugeByKey(key string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[key]
	if g == nil {
		g = &Gauge{}
		r.gauges[key] = g
	}
	return g
}

func (r *Registry) histogramByKey(key string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[key]
	if h == nil {
		h = newHistogram()
		r.hists[key] = h
	}
	return h
}

// TraceEvent is one recorded operation: what ran, where, when on the
// virtual clock, for how long, and how it ended.
type TraceEvent struct {
	// ClockSec is the virtual-clock time at which the operation
	// started.
	ClockSec float64
	// Op names the operation ("locate", "read", "rewind", ...).
	Op string
	// Segment is the operation's target segment, or -1.
	Segment int
	// ElapsedSec is the operation's virtual duration.
	ElapsedSec float64
	// Err classifies a failed operation ("" on success).
	Err string
}
