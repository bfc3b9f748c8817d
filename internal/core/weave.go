package core

import (
	"slices"

	"serpentine/internal/geometry"
)

// Weave is the paper's WEAVE algorithm: an approximation to SLTF that
// never calls the locate-time estimator. From the section containing
// the head it considers every section of the tape in a predefined
// order — the weave pattern — that places physically nearby sections
// before faraway ones, stops at the first considered section holding
// an unscheduled request, consumes that section's requests in
// ascending segment order, and repeats from there.
//
// The pattern from a section S of track T begins with S itself and
// the next two sections of T, then two sections ahead in
// co-directional tracks, one section back in anti-directional tracks,
// one ahead co-directionally, two back anti-directionally — and then
// sweeps outward over the whole tape with the flip() adjustment that
// swaps the preference order of the two sections at each physical end
// of the tape (reaching either of them requires scanning to the track
// boundary anyway). Time complexity is O(n) request work plus a
// bounded pattern walk per non-empty section.
type Weave struct{}

// Name returns "WEAVE".
func (Weave) Name() string { return "WEAVE" }

// kind distinguishes the three track groups of the weave pattern
// relative to the current track T.
type weaveKind int8

const (
	kindOwn  weaveKind = iota // track T itself
	kindCo                    // tracks co-directional with T, excluding T
	kindAnti                  // tracks anti-directional with T
)

// weaveItem is one entry of the weave pattern: a track group and a
// physical section number.
type weaveItem struct {
	kind weaveKind
	sect int // physical section number
}

// patternBuilder accumulates a weave pattern without allocating:
// seen is a dense (kind, section) table the builder leaves all-false
// after build, and out is the caller's reusable buffer.
type patternBuilder struct {
	s    int
	sign int
	out  []weaveItem
	seen []bool // 3*s entries, kind-major
}

func (pb *patternBuilder) emit(kind weaveKind, sect int) {
	if sect < 0 || sect >= pb.s {
		return
	}
	slot := int(kind)*pb.s + sect
	if pb.seen[slot] {
		return
	}
	pb.seen[slot] = true
	pb.out = append(pb.out, weaveItem{kind, sect})
}

// flip swaps the preference order of the two sections at each
// physical end of the tape: 0,1,...,s-2,s-1 -> 1,0,...,s-1,s-2.
func (pb *patternBuilder) flip(x int) int {
	switch x {
	case 0:
		return 1
	case 1:
		return 0
	case pb.s - 2:
		return pb.s - 1
	case pb.s - 1:
		return pb.s - 2
	}
	return x
}

// build enumerates the weave order from track t, physical section p.
// Section numbers out of range and repeated (kind, section) pairs are
// omitted, per the paper. The enumeration covers every (kind,
// section) pair.
func (pb *patternBuilder) build(params geometry.Params, t, p int) {
	s := params.SectionsPerTrack
	pb.s = s
	pb.sign = 1
	if params.TrackDirection(t) == geometry.Reverse {
		pb.sign = -1
	}
	pb.out = pb.out[:0]
	if cap(pb.seen) < 3*s {
		pb.seen = make([]bool, 3*s)
	}
	pb.seen = pb.seen[:3*s]
	fwd := func(n int) int { return p + pb.sign*n }
	rev := func(n int) int { return p - pb.sign*n }

	// The opening of the pattern: (T,S), (T,fwd(S,1)), (T,fwd(S,2)),
	// (CT,fwd(S,2)), (AT,rev(S,1)), (CT,fwd(S,1)), (AT,rev(S,2)).
	pb.emit(kindOwn, p)
	pb.emit(kindOwn, fwd(1))
	pb.emit(kindOwn, fwd(2))
	pb.emit(kindCo, fwd(2))
	pb.emit(kindAnti, rev(1))
	pb.emit(kindCo, fwd(1))
	pb.emit(kindAnti, rev(2))

	// The sweep: for i = 0..s-1: (AT,flip(fwd(S,i))), (T,fwd(S,i+3)),
	// (CT,fwd(S,i+3)), (T,flip(rev(S,i))), (CT,flip(rev(S,i))),
	// (AT,rev(S,i+3)).
	for i := 0; i < s; i++ {
		pb.emit(kindAnti, pb.flip(fwd(i)))
		pb.emit(kindOwn, fwd(i+3))
		pb.emit(kindCo, fwd(i+3))
		pb.emit(kindOwn, pb.flip(rev(i)))
		pb.emit(kindCo, pb.flip(rev(i)))
		pb.emit(kindAnti, rev(i+3))
	}

	// Defensive completion: the pattern above covers every
	// (kind, section) pair for the DLT geometry (asserted by tests);
	// any pair missed on an unusual geometry is appended in section
	// order so the schedule always completes.
	for _, k := range []weaveKind{kindOwn, kindCo, kindAnti} {
		for x := 0; x < s; x++ {
			pb.emit(k, x)
		}
	}

	// Restore the seen table for the next build.
	for _, it := range pb.out {
		pb.seen[int(it.kind)*s+it.sect] = false
	}
}

// weavePattern enumerates the weave order from track t, physical
// section p, allocating fresh buffers. The scheduler reuses a
// patternBuilder instead; this entry point serves tests and the
// sparse candidate generator.
func weavePattern(params geometry.Params, t, p int) []weaveItem {
	var pb patternBuilder
	pb.build(params, t, p)
	return pb.out
}

type weaveArena struct {
	b  buckets
	pb patternBuilder
}

var weaveArenas = arenaList[*weaveArena]{fresh: func() *weaveArena { return new(weaveArena) }}

func (a *weaveArena) tableBytes() int { return 0 }

// Schedule walks the weave pattern.
func (Weave) Schedule(p *Problem) (Plan, error) {
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	if len(p.Requests) == 0 {
		return Plan{}, nil
	}
	view := p.Cost.View()
	params := view.Params()
	s := params.SectionsPerTrack

	a := weaveArenas.get()
	b := &a.b
	b.build(view, p.Requests)

	// resolve finds the concrete bucket for a pattern item: for the
	// co- and anti-directional groups, the track nearest to cur
	// (ties to the lower number) holding requests at that section.
	resolve := func(cur int, it weaveItem) int32 {
		if it.kind == kindOwn {
			return b.at(cur*s + it.sect)
		}
		wantDir := params.TrackDirection(cur)
		if it.kind == kindAnti {
			if wantDir == geometry.Forward {
				wantDir = geometry.Reverse
			} else {
				wantDir = geometry.Forward
			}
		}
		best, bestDist := int32(-1), int(^uint(0)>>1)
		for t := 0; t < params.Tracks; t++ {
			if t == cur || params.TrackDirection(t) != wantDir {
				continue
			}
			bi := b.at(t*s + it.sect)
			if bi < 0 {
				continue
			}
			d := t - cur
			if d < 0 {
				d = -d
			}
			if d < bestDist {
				best, bestDist = bi, d
			}
		}
		return best
	}

	startPl := view.Place(p.Start)
	curTrack, curSect := startPl.Track, startPl.PhysSection
	order := make([]int, 0, len(p.Requests))
	remaining := len(b.bCell)
	for remaining > 0 {
		found := false
		a.pb.build(params, curTrack, curSect)
		for _, it := range a.pb.out {
			bi := resolve(curTrack, it)
			if bi < 0 {
				continue
			}
			order = append(order, b.run(bi)...)
			b.consumed[bi] = true
			remaining--
			cell := int(b.bCell[bi])
			curTrack, curSect = cell/s, cell%s
			found = true
			break
		}
		if !found {
			// Unreachable: the pattern covers every cell. Drain
			// deterministically anyway, in (track, section) order.
			rest := make([]int32, 0, remaining)
			for bi := range b.consumed {
				if !b.consumed[bi] {
					rest = append(rest, b.bCell[bi])
				}
			}
			slices.Sort(rest)
			for _, cell := range rest {
				bi := b.cell[cell]
				order = append(order, b.run(bi)...)
				b.consumed[bi] = true
			}
			remaining = 0
		}
	}
	b.release()
	weaveArenas.put(a)
	return Plan{Order: order}, nil
}
