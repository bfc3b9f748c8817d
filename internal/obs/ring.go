package obs

import "sync"

// Ring is the package's one bounded store: it retains the most recent
// cap items in insertion order, overwriting the oldest when full. The
// span tracer and the wide-event ring are both built on it. It is safe
// for concurrent use, and a nil *Ring is a valid no-op store — every
// method no-ops — so recorders never branch on whether a store is
// attached. A slot is only vacated by being overwritten, so evicted
// items are never pinned past their eviction.
type Ring[T any] struct {
	mu      sync.Mutex
	buf     []T
	next    int // slot the next eviction overwrites (the oldest item)
	total   int64
	dropped int64
}

// NewRing returns a ring retaining the most recent cap items
// (minimum 1).
func NewRing[T any](cap int) *Ring[T] {
	if cap < 1 {
		cap = 1
	}
	return &Ring[T]{buf: make([]T, 0, cap)}
}

// Add records one item, evicting the oldest when full.
func (r *Ring[T]) Add(v T) { r.add(v, nil) }

// add records stamp(v, n) in place of v when stamp is non-nil, where n
// is v's 1-based position in the total stream. It runs under the
// ring's lock, so concurrent adders get dense positions in storage
// order. stamp takes and returns a value, not a pointer: a pointer
// to v passed to an unknown function would move every added item to
// the heap.
func (r *Ring[T]) add(v T, stamp func(T, int64) T) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if stamp != nil {
		v = stamp(v, r.total)
	}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	r.dropped++
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
}

// Items returns the retained items, oldest first.
func (r *Ring[T]) Items() []T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.appendItems(make([]T, 0, len(r.buf)))
}

// AppendItems appends the retained items, oldest first, to dst and
// returns the extended slice. A consumer folding several rings sizes
// dst once (Total minus Dropped is each ring's retained count) instead
// of copying every ring twice.
func (r *Ring[T]) AppendItems(dst []T) []T {
	if r == nil {
		return dst
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.appendItems(dst)
}

func (r *Ring[T]) appendItems(dst []T) []T {
	dst = append(dst, r.buf[r.next:]...)
	return append(dst, r.buf[:r.next]...)
}

// Tail returns the retained items whose position in the total stream
// (0-based) is at least from, oldest first, or nil when there are
// none. It lets an incremental consumer harvest only what arrived
// since its last call; items evicted before the consumer caught up
// are simply gone (check Dropped).
func (r *Ring[T]) Tail(from int64) []T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := int64(len(r.buf))
	skip := max(from-(r.total-n), 0) // r.total-n: position of the oldest retained item
	if skip >= n {
		return nil
	}
	out := make([]T, 0, n-skip)
	for i := skip; i < n; i++ {
		out = append(out, r.buf[(r.next+int(i))%len(r.buf)])
	}
	return out
}

// Total returns how many items were ever added.
func (r *Ring[T]) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many of the added items were evicted.
func (r *Ring[T]) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}
