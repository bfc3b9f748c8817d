package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"serpentine/internal/geometry"
	"serpentine/internal/locate"
	"serpentine/internal/rand48"
)

// Reference LOSS engine for differential testing: the eager form of
// the greedy selection that dense LOSS ran before its candidate lists
// became lazy and its per-city losses cached. Every candidate list is
// fully sorted up front by (weight, index), and every iteration
// rescans bestOut and bestIn at every city. The production engine must
// produce exactly the same plans.
type refLossState struct {
	n        int
	weight   func(i, j int32) float64
	next     []int32
	availOut []bool
	availIn  []bool

	sortedOut [][]int32
	sortedIn  [][]int32
	ptrOut    []int
	ptrIn     []int

	parent []int32
	tail   []int32
}

func newRefLossState(n int, weight func(i, j int32) float64) *refLossState {
	s := &refLossState{
		n:         n,
		weight:    weight,
		next:      make([]int32, n),
		availOut:  make([]bool, n),
		availIn:   make([]bool, n),
		sortedOut: make([][]int32, n),
		sortedIn:  make([][]int32, n),
		ptrOut:    make([]int, n),
		ptrIn:     make([]int, n),
		parent:    make([]int32, n),
		tail:      make([]int32, n),
	}
	for c := 0; c < n; c++ {
		s.next[c] = -1
		s.availOut[c] = true
		s.availIn[c] = c != 0
		s.parent[c] = int32(c)
		s.tail[c] = int32(c)
	}
	return s
}

// sortByWeightIndex sorts lst ascending by (key(x), x).
func sortByWeightIndex(lst []int32, key func(x int32) float64) {
	sort.Slice(lst, func(a, b int) bool {
		ka, kb := key(lst[a]), key(lst[b])
		return ka < kb || (ka == kb && lst[a] < lst[b])
	})
}

func (s *refLossState) denseCandidates() {
	n := s.n
	for i := 0; i < n; i++ {
		ii := int32(i)
		var lst []int32
		for j := 1; j < n; j++ {
			if j != i {
				lst = append(lst, int32(j))
			}
		}
		sortByWeightIndex(lst, func(j int32) float64 { return s.weight(ii, j) })
		s.sortedOut[i] = lst
	}
	for j := 1; j < n; j++ {
		jj := int32(j)
		var lst []int32
		for i := 0; i < n; i++ {
			if i != j {
				lst = append(lst, int32(i))
			}
		}
		sortByWeightIndex(lst, func(i int32) float64 { return s.weight(i, jj) })
		s.sortedIn[j] = lst
	}
}

func (s *refLossState) sparseCandidates(out [][]int32) {
	n := s.n
	in := make([][]int32, n)
	for i := 0; i < n; i++ {
		lst := out[i]
		ii := int32(i)
		sort.Slice(lst, func(a, b int) bool { return s.weight(ii, lst[a]) < s.weight(ii, lst[b]) })
		s.sortedOut[i] = lst
		for _, j := range lst {
			in[j] = append(in[j], ii)
		}
	}
	for j := 1; j < n; j++ {
		lst := in[j]
		jj := int32(j)
		sort.Slice(lst, func(a, b int) bool { return s.weight(lst[a], jj) < s.weight(lst[b], jj) })
		s.sortedIn[j] = lst
	}
}

func (s *refLossState) find(x int32) int32 {
	for s.parent[x] != x {
		x = s.parent[x]
	}
	return x
}

func (s *refLossState) validOut(i, j int32) bool {
	return s.availIn[j] && s.find(i) != s.find(j)
}

func (s *refLossState) validIn(j, i int32) bool {
	return s.availOut[i] && s.find(i) != s.find(j)
}

func (s *refLossState) bestOut(i int32) (j1 int32, v1, v2 float64, found bool) {
	lst := s.sortedOut[i]
	p := s.ptrOut[i]
	for p < len(lst) && !s.validOut(i, lst[p]) {
		p++
	}
	s.ptrOut[i] = p
	if p == len(lst) {
		return 0, 0, 0, false
	}
	j1 = lst[p]
	v1 = s.weight(i, j1)
	v2 = math.Inf(1)
	for q := p + 1; q < len(lst); q++ {
		if s.validOut(i, lst[q]) {
			v2 = s.weight(i, lst[q])
			break
		}
	}
	return j1, v1, v2, true
}

func (s *refLossState) bestIn(j int32) (i1 int32, v1, v2 float64, found bool) {
	lst := s.sortedIn[j]
	p := s.ptrIn[j]
	for p < len(lst) && !s.validIn(j, lst[p]) {
		p++
	}
	s.ptrIn[j] = p
	if p == len(lst) {
		return 0, 0, 0, false
	}
	i1 = lst[p]
	v1 = s.weight(i1, j)
	v2 = math.Inf(1)
	for q := p + 1; q < len(lst); q++ {
		if s.validIn(j, lst[q]) {
			v2 = s.weight(lst[q], j)
			break
		}
	}
	return i1, v1, v2, true
}

func (s *refLossState) takeEdge(a, b int32) {
	s.next[a] = b
	s.availOut[a] = false
	s.availIn[b] = false
	ra, rb := s.find(a), s.find(b)
	s.parent[rb] = ra
	s.tail[ra] = s.tail[rb]
}

func (s *refLossState) run(maxEdges int) int {
	chosen := 0
	for chosen < maxEdges {
		bestLoss := math.Inf(-1)
		var selA, selB int32 = -1, -1
		for c := int32(0); c < int32(s.n); c++ {
			if s.availOut[c] {
				if j, v1, v2, ok := s.bestOut(c); ok {
					loss := v2 - v1
					if math.IsInf(v2, 1) {
						loss = 0
					}
					if loss > bestLoss {
						bestLoss, selA, selB = loss, c, j
					}
				}
			}
			if s.availIn[c] {
				if i, v1, v2, ok := s.bestIn(c); ok {
					if loss := v2 - v1; loss > bestLoss {
						bestLoss, selA, selB = loss, i, c
					}
				}
			}
		}
		if selA < 0 {
			break
		}
		s.takeEdge(selA, selB)
		chosen++
	}
	return chosen
}

func (s *refLossState) fragments() [][]int32 {
	isHead := make([]bool, s.n)
	for c := range isHead {
		isHead[c] = true
	}
	for _, nx := range s.next {
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

// refDensePath orders cities with the eager engine over the complete
// digraph, pricing every edge with a per-call LocateTime.
func refDensePath(p *Problem, cities []sparseCity) ([]sparseCity, error) {
	k := len(cities)
	if k <= 1 {
		return cities, nil
	}
	n := k + 1
	outSeg := func(i int32) int {
		if i == 0 {
			return p.Start
		}
		return cities[i-1].out
	}
	s := newRefLossState(n, func(i, j int32) float64 { return p.Cost.LocateTime(outSeg(i), cities[j-1].in) })
	s.denseCandidates()
	if got := s.run(k); got != k {
		return nil, fmt.Errorf("reference LOSS stuck at %d/%d edges", got, k)
	}
	order := make([]sparseCity, 0, k)
	for c := s.next[0]; c >= 0; c = s.next[c] {
		order = append(order, cities[c-1])
	}
	if len(order) != k {
		return nil, fmt.Errorf("reference LOSS broke the path (%d of %d cities)", len(order), k)
	}
	return order, nil
}

func flattenCities(cities []sparseCity, total int) []int {
	out := make([]int, 0, total)
	for _, c := range cities {
		for _, g := range c.groups {
			out = append(out, g.segs...)
		}
	}
	return out
}

// refLOSS is plain LOSS on the eager engine: every request is its own
// city, in request order.
func refLOSS(p *Problem) ([]int, error) {
	cities := make([]sparseCity, len(p.Requests))
	for i, r := range p.Requests {
		cities[i] = sparseCity{groups: []group{{segs: []int{r}}}, in: r, out: p.headAfter(r)}
	}
	order, err := refDensePath(p, cities)
	if err != nil {
		return nil, err
	}
	return flattenCities(order, len(p.Requests)), nil
}

// refSparseLOSS is SparseLOSS with default settings on the eager
// engine: the same coalescing, candidate generation and contraction
// rounds.
func refSparseLOSS(p *Problem) ([]int, error) {
	sl := NewSparseLOSS()
	groups := splitAtStart(coalesceByThreshold(p.Requests, DefaultCoalesceThreshold), p.Start)
	cities := make([]sparseCity, len(groups))
	for i, g := range groups {
		cities[i] = sparseCity{groups: []group{g}, in: g.first(), out: p.headAfter(g.last())}
	}
	for len(cities) > 192 {
		contracted, ok := refSparseRound(sl, p, cities)
		if !ok {
			break
		}
		cities = contracted
	}
	order, err := refDensePath(p, cities)
	if err != nil {
		return nil, err
	}
	return flattenCities(order, len(p.Requests)), nil
}

func refSparseRound(sl SparseLOSS, p *Problem, cities []sparseCity) ([]sparseCity, bool) {
	k := len(cities)
	n := k + 1
	fanout := 4 + int(math.Ceil(math.Log2(float64(n))))
	cand := sl.candidates(p, cities, fanout)
	outSeg := func(i int32) int {
		if i == 0 {
			return p.Start
		}
		return cities[i-1].out
	}
	s := newRefLossState(n, func(i, j int32) float64 { return p.Cost.LocateTime(outSeg(i), cities[j-1].in) })
	s.sparseCandidates(cand)
	if s.run(k) == 0 {
		return nil, false
	}
	var contracted []sparseCity
	for _, f := range s.fragments() {
		var gs []group
		for _, c := range f {
			if c != 0 {
				gs = append(gs, cities[c-1].groups...)
			}
		}
		if len(gs) == 0 {
			continue
		}
		first := f[0]
		if first == 0 {
			first = f[1]
		}
		last := f[len(f)-1]
		contracted = append(contracted, sparseCity{groups: gs, in: cities[first-1].in, out: cities[last-1].out})
	}
	return contracted, true
}

// fuzzModels holds the DLT4000 serial 1 and 2 cost models, built once
// per process.
var fuzzModels = sync.OnceValue(func() [2]*locate.Model {
	var ms [2]*locate.Model
	for i := range ms {
		m, err := locate.FromKeyPoints(geometry.MustGenerate(geometry.DLT4000(), int64(i+1)).KeyPoints())
		if err != nil {
			panic(err)
		}
		ms[i] = m
	}
	return ms
})

// FuzzLOSSMatchesFullSort checks that dense LOSS, with its lazily
// sorted candidate prefixes and cached per-city losses, and SparseLOSS,
// whose contraction rounds and dense finish share the same engine,
// emit exactly the plans of the eager reference engine. Inputs cover
// batch sizes 1..400, duplicate requests (exact weight ties between
// cities), a random start position and two tape serials.
func FuzzLOSSMatchesFullSort(f *testing.F) {
	f.Add(int64(1), uint16(140), uint8(0), false)
	f.Add(int64(42), uint16(300), uint8(60), true)
	f.Add(int64(7), uint16(2), uint8(255), false)
	f.Add(int64(-9), uint16(399), uint8(10), true)
	f.Add(int64(3), uint16(37), uint8(128), false)
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, dupRaw uint8, serial2 bool) {
		cost := fuzzModels()[0]
		if serial2 {
			cost = fuzzModels()[1]
		}
		n := 1 + int(nRaw)%400
		rng := rand48.New(seed)
		reqs := make([]int, n)
		for i := range reqs {
			// dupRaw/256 of the requests repeat an earlier one.
			if i > 0 && rng.Intn(256) < int(dupRaw) {
				reqs[i] = reqs[rng.Intn(i)]
				continue
			}
			reqs[i] = rng.Intn(cost.Segments())
		}
		p := &Problem{Start: rng.Intn(cost.Segments()), Requests: reqs, Cost: cost}
		for _, c := range []struct {
			alg Scheduler
			ref func(*Problem) ([]int, error)
		}{{NewLOSS(), refLOSS}, {NewSparseLOSS(), refSparseLOSS}} {
			got, err := c.alg.Schedule(p)
			if err != nil {
				t.Fatalf("%s: %v", c.alg.Name(), err)
			}
			want, err := c.ref(p)
			if err != nil {
				t.Fatalf("%s reference: %v", c.alg.Name(), err)
			}
			if !slicesEqual(got.Order, want) {
				t.Fatalf("%s n=%d start=%d: plan differs from the full-sort reference", c.alg.Name(), n, p.Start)
			}
		}
	})
}
