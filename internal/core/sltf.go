package core

import "serpentine/internal/locate"

// SLTF is the paper's shortest-locate-time-first algorithm: the
// serpentine analogue of a disk's shortest-seek-time-first. Starting
// from the initial head position, it repeatedly locates to the
// not-yet-read request with the smallest estimated locate time.
//
// Two facts about the locate model keep this from being quadratic in
// the request count (Section 4): reading ahead within the current
// section always beats leaving the section, and the cheapest entry
// into another section is its lowest-numbered request. SLTF therefore
// only ever compares one representative per non-empty section — the
// section's smallest unread request — giving O(n log n + k²) where k
// is the number of non-empty sections (at most 896 on a DLT4000).
//
// With a positive coalescing threshold the grouping is the paper's
// more aggressive variant: requests closer than the threshold are
// fused into one representative regardless of section boundaries.
type SLTF struct {
	// threshold is the coalescing distance in segments; 0 selects
	// per-section grouping.
	threshold int
}

// NewSLTF returns the per-section SLTF scheduler the paper's figures
// evaluate.
func NewSLTF() SLTF { return SLTF{} }

// NewSLTFCoalesced returns SLTF with the aggressive distance-based
// coalescing; the paper recommends DefaultCoalesceThreshold.
func NewSLTFCoalesced(threshold int) SLTF { return SLTF{threshold: threshold} }

// Name returns "SLTF" or "SLTF-C".
func (s SLTF) Name() string {
	if s.threshold > 0 {
		return "SLTF-C"
	}
	return "SLTF"
}

// splitAtStart splits any group containing segments on both sides of
// the start position into its before-start and from-start parts. The
// paper excludes the initial position from coalescing for the same
// reason: the from-start part is nearly free to consume immediately,
// while the before-start part costs a backward locate and may belong
// later in the schedule.
func splitAtStart(groups []group, start int) []group {
	return splitAtStartInto(groups, start, make([]group, 0, len(groups)+1))
}

// splitAtStartInto is splitAtStart appending into a caller-provided
// slice; the produced groups share the input groups' backing.
func splitAtStartInto(groups []group, start int, out []group) []group {
	for _, g := range groups {
		if g.first() >= start || g.last() < start {
			out = append(out, g)
			continue
		}
		cut := 0
		for cut < len(g.segs) && g.segs[cut] < start {
			cut++
		}
		out = append(out, group{segs: g.segs[:cut]}, group{segs: g.segs[cut:]})
	}
	return out
}

// sltfArena is the reusable working state of one SLTF run.
type sltfArena struct {
	segs  []int // request copy backing the group subslices
	grp   []group
	split []group
	order []group
	srcs  []int
	dsts  []int
	w     []float64
	rem   []int32
}

var sltfArenas = arenaList[*sltfArena]{fresh: func() *sltfArena { return new(sltfArena) }}

func (a *sltfArena) tableBytes() int { return 8 * cap(a.w) }

// sltfMatrixLimit caps the dense (k+1)×k cost matrix of the batched
// greedy at 32 MB; batches coalescing to more groups than that fall
// back to the per-call greedy, which is time-quadratic but
// memory-linear. On the DLT geometries every realistic batch fits.
const sltfMatrixLimit = 4 << 20

// Schedule runs the greedy nearest-group selection.
func (s SLTF) Schedule(p *Problem) (Plan, error) {
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	if len(p.Requests) == 0 {
		return Plan{}, nil
	}
	a := sltfArenas.get()
	a.segs = append(a.segs[:0], p.Requests...)
	sortInts(a.segs)
	if s.threshold > 0 {
		a.grp = coalesceSortedRuns(a.segs, s.threshold, a.grp[:0])
	} else {
		a.grp = coalesceSectionRuns(p.Cost.View(), a.segs, a.grp[:0])
	}
	a.split = splitAtStartInto(a.grp, p.Start, a.split[:0])

	var order []group
	if k := len(a.split); (k+1)*k <= sltfMatrixLimit {
		order = greedyNearestMatrix(p, a.split, a)
	} else {
		order = greedyNearest(p, a.split)
	}
	out := make([]int, 0, len(p.Requests))
	for _, g := range order {
		out = append(out, g.segs...)
	}
	sltfArenas.put(a)
	return Plan{Order: out}, nil
}

// greedyNearestMatrix is greedyNearest over a batch-filled cost
// matrix: w[c*k+g] is the locate time from exit point c (0 = the
// start position, c = group c-1's exit otherwise) to group g's entry
// point. It makes the same sequence of comparisons as greedyNearest —
// strict-minimum selection scanning remaining groups in order, with
// swap-with-last removal — so the schedule is identical.
func greedyNearestMatrix(p *Problem, groups []group, a *sltfArena) []group {
	k := len(groups)
	a.srcs = grown(a.srcs, k+1)
	a.dsts = grown(a.dsts, k)
	a.srcs[0] = p.Start
	for g := 0; g < k; g++ {
		a.srcs[g+1] = p.headAfter(groups[g].last())
		a.dsts[g] = groups[g].first()
	}
	a.w = grown(a.w, (k+1)*k)
	locate.FillCostMatrix(p.Cost, a.w, a.srcs, a.dsts)

	a.rem = grown(a.rem, k)
	for g := range a.rem {
		a.rem[g] = int32(g)
	}
	rem := a.rem
	a.order = a.order[:0]
	row := a.w[:k] // start position's row
	for len(rem) > 0 {
		best, bestTime := 0, row[rem[0]]
		for i := 1; i < len(rem); i++ {
			if t := row[rem[i]]; t < bestTime {
				best, bestTime = i, t
			}
		}
		g := rem[best]
		a.order = append(a.order, groups[g])
		row = a.w[(int(g)+1)*k : (int(g)+2)*k]
		rem[best] = rem[len(rem)-1]
		rem = rem[:len(rem)-1]
	}
	return a.order
}

// greedyNearest consumes groups in shortest-locate-time-first order:
// from the current head position, enter the group whose first segment
// has the smallest estimated locate time, read it through, and
// repeat. It is the per-call fallback for batches too large for the
// dense matrix.
func greedyNearest(p *Problem, groups []group) []group {
	remaining := make([]group, len(groups))
	copy(remaining, groups)
	order := make([]group, 0, len(groups))
	head := p.Start
	for len(remaining) > 0 {
		best, bestTime := 0, p.Cost.LocateTime(head, remaining[0].first())
		for i := 1; i < len(remaining); i++ {
			if t := p.Cost.LocateTime(head, remaining[i].first()); t < bestTime {
				best, bestTime = i, t
			}
		}
		g := remaining[best]
		order = append(order, g)
		head = p.headAfter(g.last())
		remaining[best] = remaining[len(remaining)-1]
		remaining = remaining[:len(remaining)-1]
	}
	return order
}
