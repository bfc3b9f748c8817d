package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"serpentine/internal/locate"
)

// LOSS is the paper's recommended algorithm for batches larger than
// OPT can handle: the greedy edge-selection heuristic for the
// asymmetric traveling salesman path from Lawler, Lenstra, Rinnooy
// Kan & Shmoys [LLKS85]. Where SLTF greedily extends one path from
// the head position — oblivious to the long edges its choices force
// later — LOSS repeatedly commits the edge at the city whose "lost
// opportunity" would be largest if skipped: the city with the
// greatest difference between its shortest and second-shortest
// remaining edge (on either the incoming or outgoing side). Choosing
// that city's short edge avoids ever being forced onto its much
// longer alternative.
//
// The time complexity is quadratic in the number of cities; the
// paper notes that coalescing nearby segments into a single
// representative (NewLOSSCoalesced) shrinks the problem
// significantly. On the DLT4000, LOSS delivers 124 random I/Os per
// hour at batch size 96 and 285 per hour at 1024, versus 50 per hour
// unscheduled.
type LOSS struct {
	threshold int
}

// NewLOSS returns the plain LOSS scheduler evaluated in the paper's
// figures (every request is its own city).
func NewLOSS() LOSS { return LOSS{} }

// NewLOSSCoalesced returns LOSS with distance-based coalescing; the
// paper recommends DefaultCoalesceThreshold.
func NewLOSSCoalesced(threshold int) LOSS { return LOSS{threshold: threshold} }

// Name returns "LOSS" or "LOSS-C".
func (l LOSS) Name() string {
	if l.threshold > 0 {
		return "LOSS-C"
	}
	return "LOSS"
}

// maxLOSSCities bounds the dense cost matrix ((k+1)^2 float64s).
// Batches that coalesce to more cities than this fall back to
// SparseLOSS, whose contraction rounds keep memory linear.
const maxLOSSCities = 8192

// lossArena is the reusable working state of one dense LOSS run; see
// arena.go for the pooling rationale.
type lossArena struct {
	state lossState
	segs  []int // request copy backing the group subslices
	grp   []group
	split []group
	order []group
	srcs  []int
	dsts  []int
	w     []float64
	back  []int32
}

var lossPool = sync.Pool{New: func() any { return new(lossArena) }}

// Schedule runs the greedy loss selection over the request groups.
func (l LOSS) Schedule(p *Problem) (Plan, error) {
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	if len(p.Requests) == 0 {
		return Plan{}, nil
	}
	a := lossPool.Get().(*lossArena)
	var groups []group
	if l.threshold > 0 {
		a.segs = append(a.segs[:0], p.Requests...)
		sortInts(a.segs)
		a.grp = coalesceSortedRuns(a.segs, l.threshold, a.grp[:0])
		a.split = splitAtStartInto(a.grp, p.Start, a.split[:0])
		groups = a.split
	} else {
		// Plain LOSS: every request is its own city, in request order.
		a.segs = append(a.segs[:0], p.Requests...)
		a.grp = grown(a.grp, len(a.segs))
		for i := range a.segs {
			a.grp[i] = group{segs: a.segs[i : i+1]}
		}
		groups = a.grp
	}
	if len(groups)+1 > maxLOSSCities {
		// The dense matrix would be too large; hand the batch to the
		// sparse-graph variant, which solves the same instance in
		// linear memory (the groups rebuild from p.Requests).
		lossPool.Put(a)
		return SparseLOSS{Threshold: l.threshold}.Schedule(p)
	}
	order, err := lossPath(p, groups, a)
	if err != nil {
		lossPool.Put(a)
		return Plan{}, err
	}
	out := make([]int, 0, len(p.Requests))
	for _, g := range order {
		out = append(out, g.segs...)
	}
	lossPool.Put(a)
	return Plan{Order: out}, nil
}

// lossState carries the incremental machinery of one greedy loss run.
// Cities are numbered 0..n-1: city 0 is the initial head position
// (outgoing side only), the rest are retrieval units. The candidate
// lists may be complete (dense LOSS) or restricted (SparseLOSS).
// Weights come either from the dense matrix w (stride n-1, entry
// (i, j) at i*(n-1)+j-1; column city 0 has no in-edges and needs no
// column) or from weightFn.
type lossState struct {
	n        int // city count including city 0
	w        []float64
	weightFn func(i, j int32) float64
	next     []int32 // chosen successor per city, -1 if none

	availOut []bool
	availIn  []bool

	// Candidate lists ascending by weight, with monotone skip
	// pointers: a candidate once invalid never becomes valid again
	// (availability only decreases and path fragments only merge),
	// so the pointers never move backward. A dense list holds only a
	// sorted prefix of its candidates, and its capacity is the full
	// candidate count; extendOut and extendIn grow the prefix on
	// demand. A list with len == cap is fully sorted.
	sortedOut [][]int32
	sortedIn  [][]int32
	ptrOut    []int
	ptrIn     []int

	// Cached two cheapest valid candidates and the loss of each
	// city's out and in side, refreshed only when an edge can have
	// changed them (see run).
	topOut []sideTop
	topIn  []sideTop

	heap []keyedCand // extendPrefix scratch, sized by denseCandidates

	// Path fragments, union-find with tail tracking. The root of a
	// fragment is always its head city: takeEdge hangs the successor
	// fragment under the predecessor's root.
	parent []int32
	tail   []int32
}

// sideTop is one side of a city's cached selection state: the
// cheapest and second-cheapest valid candidates (-1 when absent) and
// the side's loss.
type sideTop struct {
	first, second int32
	loss          float64
}

// lossPrefix is the number of candidates a dense list sorts up front.
// The greedy selection reads most lists only a little way past their
// front (at 140 cities, out-lists to a mean depth of 11 and in-lists
// to 8), so a short prefix avoids sorting entries that are invalid
// long before the skip pointer reaches them. On BenchmarkScheduler's
// 128-request batch, 8 took about 10% less time than 16 and a third
// less than 32.
const lossPrefix = 8

// newLossState initializes the shared machinery with freshly
// allocated state. weight(i, j) is the cost of traveling from city i
// to city j. The arena path uses lossState.reset instead.
func newLossState(n int, weight func(i, j int32) float64) *lossState {
	s := &lossState{}
	s.reset(n)
	s.weightFn = weight
	return s
}

// reset prepares the state for an n-city run, reusing prior backing
// arrays when they are large enough.
func (s *lossState) reset(n int) {
	s.n = n
	s.w = nil
	s.weightFn = nil
	s.next = grown(s.next, n)
	s.availOut = grown(s.availOut, n)
	s.availIn = grown(s.availIn, n)
	s.sortedOut = grown(s.sortedOut, n)
	s.sortedIn = grown(s.sortedIn, n)
	s.ptrOut = grown(s.ptrOut, n)
	s.ptrIn = grown(s.ptrIn, n)
	s.topOut = grown(s.topOut, n)
	s.topIn = grown(s.topIn, n)
	s.parent = grown(s.parent, n)
	s.tail = grown(s.tail, n)
	for c := 0; c < n; c++ {
		s.next[c] = -1
		s.availOut[c] = true
		s.availIn[c] = c != 0 // city 0 never receives an in-edge
		s.sortedOut[c] = nil
		s.sortedIn[c] = nil
		s.ptrOut[c] = 0
		s.ptrIn[c] = 0
		s.parent[c] = int32(c)
		s.tail[c] = int32(c)
	}
}

// weight returns the cost of traveling from city i to city j (j > 0).
func (s *lossState) weight(i, j int32) float64 {
	if s.w != nil {
		return s.w[int(i)*(s.n-1)+int(j)-1]
	}
	return s.weightFn(i, j)
}

// denseCandidates fills complete candidate lists over the dense
// matrix s.w: every city pair is an edge, as in the paper's primary
// LOSS formulation. back holds room for all 2n(n-1) candidate entries
// (out rows then in rows, stride n-1). Each list is a
// capacity-clamped subslice of back whose capacity is its candidate
// count, so a bug cannot overflow into a neighboring row. Only the
// first lossPrefix entries of each list are selected and sorted here.
func (s *lossState) denseCandidates(back []int32) {
	n := s.n
	k := n - 1
	s.heap = grown(s.heap, n)
	for i := 0; i < n; i++ {
		off := i * k
		total := k
		if i != 0 {
			total-- // a city is not its own successor
		}
		s.sortedOut[i] = back[off : off : off+total]
		s.extendOut(int32(i))
	}
	inBack := back[n*k:]
	for j := 1; j < n; j++ {
		off := (j - 1) * k
		s.sortedIn[j] = inBack[off : off : off+k]
		s.extendIn(int32(j))
	}
}

// extendOut grows the sorted prefix of i's dense out-list and reports
// whether it grew. Out-candidates j of i run along row i of w.
func (s *lossState) extendOut(i int32) bool {
	return s.extendPrefix(&s.sortedOut[i], int(i)*(s.n-1)-1, 1, 1, i)
}

// extendIn grows the sorted prefix of j's dense in-list and reports
// whether it grew. In-candidates i of j run down column j of w.
func (s *lossState) extendIn(j int32) bool {
	return s.extendPrefix(&s.sortedIn[j], int(j)-1, s.n-1, 0, j)
}

// keyedCand is a candidate with its weight, ordered by candLess.
type keyedCand struct {
	k float64
	x int32
}

// candLess is the candidate total order: by weight, exact ties by
// index.
func candLess(a, b keyedCand) bool {
	return a.k < b.k || (a.k == b.k && a.x < b.x)
}

// extendPrefix appends to the sorted prefix *lst the next-cheapest
// chunk of candidates: those ordered after the prefix's last entry,
// ascending. The candidates are lo..n-1 except self, and candidate x
// costs w[base+x*stride]. The order is the total order (weight,
// index), so growing a prefix chunk by chunk yields exactly the
// sequence a full sort of the list would. The first chunk is
// lossPrefix long and each later chunk doubles the prefix. It
// reports false, leaving *lst alone, once the list is fully sorted.
//
// One pass over the candidates keeps the chunk as a bounded max-heap
// in s.heap, which is then sorted into the list's spare capacity.
func (s *lossState) extendPrefix(lst *[]int32, base, stride, lo int, self int32) bool {
	pre := *lst
	size := len(pre)
	if size == cap(pre) {
		return false
	}
	m := min(max(size, lossPrefix), cap(pre)-size)
	h := s.heap[:m]
	last := keyedCand{math.Inf(-1), -1}
	if size > 0 {
		last.x = pre[size-1]
		last.k = s.w[base+int(last.x)*stride]
	}
	fill := 0
	for x := int32(lo); x < int32(s.n); x++ {
		c := keyedCand{s.w[base+int(x)*stride], x}
		if x == self || !candLess(last, c) {
			continue
		}
		switch {
		case fill < m:
			// Sift c up into the max-heap h[:fill+1].
			i := fill
			for i > 0 {
				p := (i - 1) / 2
				if !candLess(h[p], c) {
					break
				}
				h[i] = h[p]
				i = p
			}
			h[i] = c
			fill++
		case candLess(c, h[0]):
			siftDown(h, c)
		}
	}
	// Pop the maximum m times, filling the chunk from its back.
	out := pre[size : size+m]
	for end := m - 1; end > 0; end-- {
		out[end] = h[0].x
		siftDown(h[:end], h[end])
	}
	out[0] = h[0].x
	*lst = pre[:size+m]
	return true
}

// siftDown replaces the root of the max-heap h with c and restores
// the heap order.
func siftDown(h []keyedCand, c keyedCand) {
	i := 0
	for {
		ch := 2*i + 1
		if ch >= len(h) {
			break
		}
		if ch+1 < len(h) && candLess(h[ch], h[ch+1]) {
			ch++
		}
		if !candLess(c, h[ch]) {
			break
		}
		h[i] = h[ch]
		i = ch
	}
	h[i] = c
}

// sparseCandidates installs restricted out-edge lists and derives the
// in-edge lists by transposition. Both are fully sorted.
func (s *lossState) sparseCandidates(out [][]int32) {
	n := s.n
	in := make([][]int32, n)
	for i := 0; i < n; i++ {
		lst := out[i]
		ii := int32(i)
		sort.Slice(lst, func(a, b int) bool { return s.weight(ii, lst[a]) < s.weight(ii, lst[b]) })
		s.sortedOut[i] = lst[:len(lst):len(lst)]
		for _, j := range lst {
			in[j] = append(in[j], ii)
		}
	}
	for j := 1; j < n; j++ {
		lst := in[j]
		jj := int32(j)
		sort.Slice(lst, func(a, b int) bool { return s.weight(lst[a], jj) < s.weight(lst[b], jj) })
		s.sortedIn[j] = lst[:len(lst):len(lst)]
	}
}

func (s *lossState) find(x int32) int32 {
	for s.parent[x] != x {
		s.parent[x] = s.parent[s.parent[x]]
		x = s.parent[x]
	}
	return x
}

// validOut reports whether j is still a legal successor for i.
func (s *lossState) validOut(i, j int32) bool {
	return s.availIn[j] && s.find(i) != s.find(j)
}

// validIn reports whether i is still a legal predecessor for j.
func (s *lossState) validIn(j, i int32) bool {
	return s.availOut[i] && s.find(i) != s.find(j)
}

// nextOut returns the position of the first valid successor at or
// after position p of i's out-list, extending the sorted prefix as
// the scan reaches its end; -1 when none remains.
func (s *lossState) nextOut(i int32, p int) int {
	for {
		lst := s.sortedOut[i]
		for ; p < len(lst); p++ {
			if s.validOut(i, lst[p]) {
				return p
			}
		}
		if !s.extendOut(i) {
			return -1
		}
	}
}

// nextIn mirrors nextOut for the incoming side of j.
func (s *lossState) nextIn(j int32, p int) int {
	for {
		lst := s.sortedIn[j]
		for ; p < len(lst); p++ {
			if s.validIn(j, lst[p]) {
				return p
			}
		}
		if !s.extendIn(j) {
			return -1
		}
	}
}

// refreshOut recomputes i's cached out side: its two cheapest
// remaining successors, advancing the skip pointer past permanently
// invalid entries. Out-side loss is the gap between them, or zero
// when a single candidate remains: the tour is a free-end path, so
// skipping the last out-edge just nominates the city for the tail
// position.
func (s *lossState) refreshOut(i int32) {
	t := sideTop{first: -1, second: -1}
	if p := s.nextOut(i, s.ptrOut[i]); p >= 0 {
		s.ptrOut[i] = p
		t.first = s.sortedOut[i][p]
		v1, v2 := s.weight(i, t.first), math.Inf(1)
		if q := s.nextOut(i, p+1); q >= 0 {
			t.second = s.sortedOut[i][q]
			v2 = s.weight(i, t.second)
		}
		t.loss = v2 - v1
		if math.IsInf(v2, 1) {
			t.loss = 0
		}
	}
	s.topOut[i] = t
}

// refreshIn mirrors refreshOut for the incoming side of j, except
// that an in-side down to a single candidate is a forced move: every
// city but the start must receive an in-edge, so its loss is
// infinite.
func (s *lossState) refreshIn(j int32) {
	t := sideTop{first: -1, second: -1}
	if p := s.nextIn(j, s.ptrIn[j]); p >= 0 {
		s.ptrIn[j] = p
		t.first = s.sortedIn[j][p]
		v1, v2 := s.weight(t.first, j), math.Inf(1)
		if q := s.nextIn(j, p+1); q >= 0 {
			t.second = s.sortedIn[j][q]
			v2 = s.weight(t.second, j)
		}
		t.loss = v2 - v1
	}
	s.topIn[j] = t
}

// takeEdge commits edge a->b.
func (s *lossState) takeEdge(a, b int32) {
	s.next[a] = b
	s.availOut[a] = false
	s.availIn[b] = false
	ra, rb := s.find(a), s.find(b)
	// Merge fragment rb into ra: the joined path now ends at rb's
	// tail and still starts at ra, which stays the root.
	s.parent[rb] = ra
	s.tail[ra] = s.tail[rb]
}

// run performs greedy loss selection until maxEdges edges have been
// committed or no legal candidate edge remains, and returns the
// number of edges chosen. Each iteration commits the cheapest edge at
// the city whose loss — the gap between its cheapest and
// second-cheapest remaining edge on either side — is maximal; ties go
// to the lowest city, out side before in side.
//
// The per-side losses are cached and refreshed only where taking
// a->b can change them. Invalidity is permanent, so a side's top two
// change only when one of them turns invalid. That happens to an
// out-list whose top two hold b (b takes no further in-edge), to an
// in-list whose top two hold a (a takes no further out-edge), and to
// the merged fragment's tail and head, which may no longer link to
// each other. Every other city of the two fragments has used up both
// the sides concerned.
func (s *lossState) run(maxEdges int) int {
	for c := int32(0); c < int32(s.n); c++ {
		if s.availOut[c] {
			s.refreshOut(c)
		}
		if s.availIn[c] {
			s.refreshIn(c)
		}
	}
	// lastA->lastB is the edge taken by the previous iteration; -2
	// matches no candidate (-1 marks an absent one).
	var lastA, lastB int32 = -2, -2
	chosen := 0
	for chosen < maxEdges {
		bestLoss := math.Inf(-1)
		var selA, selB int32 = -1, -1
		for c := int32(0); c < int32(s.n); c++ {
			if s.availOut[c] {
				t := &s.topOut[c]
				if t.first == lastB || t.second == lastB {
					s.refreshOut(c)
				}
				if t.first >= 0 && t.loss > bestLoss {
					bestLoss, selA, selB = t.loss, c, t.first
				}
			}
			if s.availIn[c] {
				t := &s.topIn[c]
				if t.first == lastA || t.second == lastA {
					s.refreshIn(c)
				}
				if t.first >= 0 && t.loss > bestLoss {
					bestLoss, selA, selB = t.loss, t.first, c
				}
			}
		}
		if selA < 0 {
			break
		}
		s.takeEdge(selA, selB)
		chosen++
		lastA, lastB = selA, selB
		head := s.find(selA)
		s.refreshOut(s.tail[head])
		if s.availIn[head] {
			s.refreshIn(head)
		}
	}
	return chosen
}

// fragments extracts the directed partial paths of the current state,
// each as the list of its cities in path order. The fragment
// containing city 0 comes first.
func (s *lossState) fragments() [][]int32 {
	isHead := make([]bool, s.n)
	for c := range isHead {
		isHead[c] = true
	}
	for _, nx := range s.next[:s.n] {
		if nx >= 0 {
			isHead[nx] = false
		}
	}
	var frags [][]int32
	for c := int32(0); c < int32(s.n); c++ {
		if !isHead[c] {
			continue
		}
		var f []int32
		for x := c; x >= 0; x = s.next[x] {
			f = append(f, x)
		}
		if c == 0 {
			frags = append([][]int32{f}, frags...)
		} else {
			frags = append(frags, f)
		}
	}
	return frags
}

// lossPath builds the retrieval order of groups with the dense
// (complete-digraph) LOSS algorithm, drawing all working state from
// the arena. The returned slice is arena-backed; callers copy out of
// it before releasing the arena.
func lossPath(p *Problem, groups []group, a *lossArena) ([]group, error) {
	k := len(groups)
	if k == 1 {
		a.order = append(a.order[:0], groups[0])
		return a.order, nil
	}
	n := k + 1
	// Dense weight matrix, batch-filled: w[i*k+(j-1)] =
	// locate(out_i, in_j). The out point of city 0 is the head start;
	// the out point of a group city is the head position after reading
	// its last segment; the in point is its first segment. Read times
	// are order-independent and excluded. City 0 takes no in-edge, so
	// the matrix has no column for it; the diagonal is filled but
	// never read (a city is not a candidate of itself).
	a.srcs = grown(a.srcs, n)
	a.dsts = grown(a.dsts, k)
	a.srcs[0] = p.Start
	for c := 1; c < n; c++ {
		g := groups[c-1]
		a.srcs[c] = p.headAfter(g.last())
		a.dsts[c-1] = g.first()
	}
	a.w = grown(a.w, n*k)
	locate.FillCostMatrix(p.Cost, a.w, a.srcs, a.dsts)
	s := &a.state
	s.reset(n)
	s.w = a.w
	a.back = grown(a.back, 2*n*k)
	s.denseCandidates(a.back)
	if got := s.run(k); got != k {
		return nil, fmt.Errorf("core: LOSS stuck with %d/%d edges chosen", got, k)
	}
	a.order = a.order[:0]
	for c := s.next[0]; c >= 0; c = s.next[c] {
		a.order = append(a.order, groups[c-1])
	}
	if len(a.order) != k {
		return nil, fmt.Errorf("core: LOSS produced a broken path (%d of %d cities)", len(a.order), k)
	}
	return a.order, nil
}
