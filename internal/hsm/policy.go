package hsm

import (
	"container/list"
	"fmt"
)

// Entry is one cached object as the eviction policies see it. The
// cache owns the entry; policies read the fields and keep their own
// bookkeeping keyed by ID.
type Entry struct {
	// ID names the cached object (the catalog object ID).
	ID string
	// Bytes is the entry's resident size.
	Bytes int64
	// Cost is the modeled re-fetch cost in virtual seconds — the
	// locate+transfer price tertiary.Library.RefetchSec charges for
	// reading the object off tape again. The cost-aware policy
	// evicts the cheapest-to-refetch entry first.
	Cost float64
	// Seq is the entry's install sequence number, the deterministic
	// tie-break every policy falls back to.
	Seq int64
	// Dirty marks write-back data not yet flushed to tape; evicting a
	// dirty entry costs a writeback.
	Dirty bool
}

// Policy decides which resident entry an over-capacity cache evicts
// next. Implementations are stateful (they track recency or scan
// position), belong to one cache, and must be fully deterministic: a
// victim is a pure function of the install/touch/remove history, never
// of map iteration order or wall time.
type Policy interface {
	// Name labels the policy in tables and metric labels.
	Name() string
	// Install records a newly admitted entry.
	Install(e *Entry)
	// Touch records a hit on a resident entry.
	Touch(e *Entry)
	// Victim returns the entry to evict next. The cache guarantees at
	// least one entry is resident.
	Victim() *Entry
	// Remove records that the entry left the cache.
	Remove(e *Entry)
}

// NewPolicy resolves a policy name: "lru" (and "", the default),
// "clock", or "cost".
func NewPolicy(name string) (Policy, error) {
	switch name {
	case "", "lru":
		return newLRU(), nil
	case "clock":
		return newClock(), nil
	case "cost":
		return newCostAware(), nil
	}
	return nil, fmt.Errorf("hsm: unknown eviction policy %q", name)
}

// lru evicts the least recently used entry: a doubly-linked recency
// list with the most recent entry at the front.
type lru struct {
	order *list.List // of *Entry, front = most recent
	nodes map[string]*list.Element
}

func newLRU() *lru {
	return &lru{order: list.New(), nodes: make(map[string]*list.Element)}
}

func (p *lru) Name() string { return "lru" }

func (p *lru) Install(e *Entry) { p.nodes[e.ID] = p.order.PushFront(e) }

func (p *lru) Touch(e *Entry) { p.order.MoveToFront(p.nodes[e.ID]) }

func (p *lru) Victim() *Entry { return p.order.Back().Value.(*Entry) }

func (p *lru) Remove(e *Entry) {
	p.order.Remove(p.nodes[e.ID])
	delete(p.nodes, e.ID)
}

// clockNode is one page frame on the clock's circular list.
type clockNode struct {
	e          *Entry
	ref        bool
	next, prev *clockNode
}

// clock is the classic second-chance ring: entries sit on a circle, a
// hand sweeps it clearing reference bits, and the first entry found
// with its bit already clear is the victim. A touched entry survives
// one extra sweep — the "second chance".
type clock struct {
	hand  *clockNode
	nodes map[string]*clockNode
}

func newClock() *clock { return &clock{nodes: make(map[string]*clockNode)} }

func (p *clock) Name() string { return "clock" }

// Install places the entry immediately behind the hand — the last
// frame the current sweep will examine — with its bit clear.
func (p *clock) Install(e *Entry) {
	n := &clockNode{e: e}
	if p.hand == nil {
		n.next, n.prev = n, n
		p.hand = n
	} else {
		prev := p.hand.prev
		prev.next, n.prev = n, prev
		n.next, p.hand.prev = p.hand, n
	}
	p.nodes[e.ID] = n
}

func (p *clock) Touch(e *Entry) { p.nodes[e.ID].ref = true }

func (p *clock) Victim() *Entry {
	for p.hand.ref {
		p.hand.ref = false
		p.hand = p.hand.next
	}
	return p.hand.e
}

func (p *clock) Remove(e *Entry) {
	n := p.nodes[e.ID]
	delete(p.nodes, e.ID)
	if n.next == n {
		p.hand = nil
		return
	}
	if p.hand == n {
		p.hand = n.next
	}
	n.prev.next, n.next.prev = n.next, n.prev
}

// costAware evicts the entry that is cheapest to fetch back from tape
// (smallest Entry.Cost, install order breaking exact ties): the cache
// keeps the objects whose loss would cost the most re-fetch seconds.
// Victim selection is a linear scan over an install-ordered list —
// caches hold at most a few thousand extents, and determinism beats
// heap bookkeeping here.
type costAware struct {
	order *list.List // of *Entry, install order
	nodes map[string]*list.Element
}

func newCostAware() *costAware {
	return &costAware{order: list.New(), nodes: make(map[string]*list.Element)}
}

func (p *costAware) Name() string { return "cost" }

func (p *costAware) Install(e *Entry) { p.nodes[e.ID] = p.order.PushBack(e) }

func (p *costAware) Touch(*Entry) {}

func (p *costAware) Victim() *Entry {
	var best *Entry
	for el := p.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*Entry)
		if best == nil || e.Cost < best.Cost || (e.Cost == best.Cost && e.Seq < best.Seq) {
			best = e
		}
	}
	return best
}

func (p *costAware) Remove(e *Entry) {
	p.order.Remove(p.nodes[e.ID])
	delete(p.nodes, e.ID)
}
