package core

import (
	"slices"
	"sync"

	"serpentine/internal/geometry"
)

// Scheduling arenas: reusable working state so that repeated Schedule
// calls at the same batch size allocate (almost) nothing. Scheduler
// values are stateless and shared across goroutines — the simulator
// runs one instance from many workers — so the working state lives in
// arenas taken from and returned to a free list per scheduler rather
// than on the scheduler structs. Steady state per Schedule call is a
// single allocation: the returned Plan.Order.
//
// The free list is not a sync.Pool. A pool drops its contents at every
// garbage collection, so when the live heap is small and collections
// are frequent, most Schedule calls find the pool empty and regrow
// their arena from nothing, and that garbage triggers the next
// collection sooner. The free list keeps its arenas across
// collections instead. It is bounded: it never holds more arenas than
// the most Schedule calls that ran at once, nor more than
// maxFreeArenas, and it drops an arena whose tables exceed
// maxArenaBytes, so one outsized batch does not pin its matrix for the
// life of the process.

// maxFreeArenas bounds each free list's length.
const maxFreeArenas = 16

// maxArenaBytes is the largest table footprint a free list keeps: a
// dense LOSS matrix of about 2,900 cities.
const maxArenaBytes = 64 << 20

// arena is a scheduler's reusable working state.
type arena interface {
	// tableBytes is the size of the arena's tables that grow faster
	// than linearly in the batch size (cost matrices, candidate
	// lists, Held-Karp tables): the part that can grow large.
	tableBytes() int
}

// arenaList is a bounded free list of arenas of one type.
type arenaList[A arena] struct {
	fresh func() A
	mu    sync.Mutex
	free  []A
}

// get returns a free arena, or a fresh one when none is free.
func (l *arenaList[A]) get() A {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		a := l.free[n-1]
		var zero A
		l.free[n-1] = zero
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return a
	}
	l.mu.Unlock()
	return l.fresh()
}

// put returns an arena for reuse, or drops it when the list is full
// or the arena is larger than maxArenaBytes.
func (l *arenaList[A]) put(a A) {
	if a.tableBytes() > maxArenaBytes {
		return
	}
	l.mu.Lock()
	if len(l.free) < maxFreeArenas {
		l.free = append(l.free, a)
	}
	l.mu.Unlock()
}

// grown returns s resized to length n, reusing the backing array when
// capacity allows. Contents are unspecified.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// sortInts sorts ascending in place without allocating.
func sortInts(s []int) { slices.Sort(s) }

// cellIndex is the dense cell -> bucket lookup SCAN and WEAVE share:
// a slice over all (track, physical section) cells holding the bucket
// index at that cell, -1 when empty. Entries are restored to -1 after
// every use, so a reused arena's table is always clean on entry.
type cellIndex []int32

// sized returns the table with at least n valid (-1 or in-use)
// entries.
func (c cellIndex) sized(n int) cellIndex {
	if cap(c) < n {
		c = make(cellIndex, n)
		for i := range c {
			c[i] = -1
		}
		return c
	}
	// Anything within the original allocation was initialized to -1
	// and is restored after each use, so regrowing within capacity is
	// already clean.
	return c[:n]
}

// buckets is the shared request-bucketing state: requests sorted
// ascending and grouped into runs per (track, physical section) cell.
// Because segment numbers are contiguous per logical section and
// logical sections map 1:1 to physical sections within a track, each
// cell's requests form one contiguous run of the sorted slice.
type buckets struct {
	segs     []int // sorted requests (backing for all runs)
	cell     cellIndex
	bCell    []int32 // bucket -> cell
	bStart   []int32 // bucket -> start offset in segs; end is next start
	consumed []bool
}

// build sorts the requests into the arena and indexes the runs. Each
// request's cell is derived from the view's dense section index;
// within a track, physical section = logical section for forward
// tracks and the mirror image for reverse tracks.
func (b *buckets) build(view *geometry.View, reqs []int) {
	params := view.Params()
	spt := params.SectionsPerTrack
	b.segs = append(b.segs[:0], reqs...)
	sortInts(b.segs)
	b.cell = b.cell.sized(params.Tracks * spt)
	b.bCell = b.bCell[:0]
	b.bStart = b.bStart[:0]
	prev := int32(-1)
	for i, seg := range b.segs {
		idx := view.SectionIndex(seg)
		t, l := idx/spt, idx%spt
		ps := l
		if params.TrackDirection(t) == geometry.Reverse {
			ps = spt - 1 - l
		}
		cell := int32(t*spt + ps)
		if cell != prev {
			b.cell[cell] = int32(len(b.bCell))
			b.bCell = append(b.bCell, cell)
			b.bStart = append(b.bStart, int32(i))
			prev = cell
		}
	}
	b.consumed = grown(b.consumed, len(b.bCell))
	for i := range b.consumed {
		b.consumed[i] = false
	}
}

// run returns bucket bi's requests, ascending.
func (b *buckets) run(bi int32) []int {
	end := len(b.segs)
	if int(bi)+1 < len(b.bStart) {
		end = int(b.bStart[bi+1])
	}
	return b.segs[b.bStart[bi]:end]
}

// at returns the unconsumed bucket at cell, or -1.
func (b *buckets) at(cell int) int32 {
	bi := b.cell[cell]
	if bi >= 0 && b.consumed[bi] {
		return -1
	}
	return bi
}

// release restores the cell table to all -1 for the next user.
func (b *buckets) release() {
	for _, cell := range b.bCell {
		b.cell[cell] = -1
	}
}
