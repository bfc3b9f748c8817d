package core

import "serpentine/internal/geometry"

// Scan is the paper's SCAN (elevator) algorithm for serpentine tape
// (Figure 2). The head shuttles up the physical length of the tape
// reading requested sections from forward tracks, then back down
// reading requested sections from reverse tracks, repeating until
// every request is scheduled.
//
// On each sweep, at most one track's requests are read per physical
// section position (the head can only be on one track at a time and
// never moves against the sweep); when several tracks hold requests
// at the same section position, the lowest-numbered track is served
// and the others wait for a later sweep. Unlike SORT, the resulting
// schedule switches tracks often but makes few passes over the length
// of the tape. Time complexity is linear in the number of sections
// containing requests.
type Scan struct{}

// Name returns "SCAN".
func (Scan) Name() string { return "SCAN" }

type scanArena struct {
	b buckets
}

var scanArenas = arenaList[*scanArena]{fresh: func() *scanArena { return new(scanArena) }}

func (a *scanArena) tableBytes() int { return 0 }

// Schedule implements the Figure 2 pseudocode.
func (Scan) Schedule(p *Problem) (Plan, error) {
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	if len(p.Requests) == 0 {
		return Plan{}, nil
	}
	view := p.Cost.View()
	params := view.Params()
	s := params.SectionsPerTrack

	a := scanArenas.get()
	b := &a.b
	b.build(view, p.Requests)

	// pick serves the lowest-numbered track of the given direction
	// parity holding requests at physical section x, if any.
	pick := func(order []int, x int, forward bool) ([]int, bool) {
		for t := 0; t < params.Tracks; t++ {
			if (params.TrackDirection(t) == geometry.Forward) != forward {
				continue
			}
			if bi := b.at(t*s + x); bi >= 0 {
				b.consumed[bi] = true
				return append(order, b.run(bi)...), true
			}
		}
		return order, false
	}

	order := make([]int, 0, len(p.Requests))
	remaining := len(b.bCell)
	for remaining > 0 {
		for x := 0; x < s; x++ {
			var ok bool
			if order, ok = pick(order, x, true); ok {
				remaining--
			}
		}
		for x := s - 1; x >= 0; x-- {
			var ok bool
			if order, ok = pick(order, x, false); ok {
				remaining--
			}
		}
	}
	b.release()
	scanArenas.put(a)
	return Plan{Order: order}, nil
}
