package core

import (
	"math"
	"testing"
)

// LOSS must track the optimum closely on instances small enough to
// solve exactly — the reason the paper prefers it over plain greedy.
func TestLOSSNearOptimal(t *testing.T) {
	m := testModel(t, 1)
	var lossTotal, optTotal float64
	for seed := int64(0); seed < 20; seed++ {
		n := 5 + int(seed)%5
		p := randomProblem(t, m, n, seed*7+3)
		lp, err := NewLOSS().Schedule(p)
		if err != nil {
			t.Fatal(err)
		}
		op, err := NewOPT(10).Schedule(p)
		if err != nil {
			t.Fatal(err)
		}
		lossTotal += lp.Estimate(p).Total()
		optTotal += op.Estimate(p).Total()
	}
	if lossTotal > 1.15*optTotal {
		t.Fatalf("LOSS (%.0f) more than 15%% above OPT (%.0f) on small batches", lossTotal, optTotal)
	}
}

// LOSS must beat the plain greedy SLTF on average: "SLTF ... is too
// greedy. It goes astray because it is oblivious to the fact that
// choosing the closest city now may force the path to traverse a very
// long edge later."
func TestLOSSBeatsSLTFOnAverage(t *testing.T) {
	m := testModel(t, 1)
	var lossTotal, sltfTotal float64
	for seed := int64(0); seed < 12; seed++ {
		p := randomProblem(t, m, 96, seed*5+1)
		lp, err := NewLOSS().Schedule(p)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := NewSLTF().Schedule(p)
		if err != nil {
			t.Fatal(err)
		}
		lossTotal += lp.Estimate(p).Total()
		sltfTotal += sp.Estimate(p).Total()
	}
	if lossTotal >= sltfTotal {
		t.Fatalf("LOSS (%.0f) should beat SLTF (%.0f) on average at n=96", lossTotal, sltfTotal)
	}
}

func TestLOSSDeterministic(t *testing.T) {
	m := testModel(t, 1)
	p := randomProblem(t, m, 64, 9)
	a, err := NewLOSS().Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLOSS().Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Order {
		if a.Order[i] != b.Order[i] {
			t.Fatal("LOSS not deterministic")
		}
	}
}

// The coalesced variant trades little quality for a large problem
// shrink at high density.
func TestLOSSCoalescedQuality(t *testing.T) {
	m := testModel(t, 1)
	p := randomProblem(t, m, 512, 6)
	full, err := NewLOSS().Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	coal, err := NewLOSSCoalesced(DefaultCoalesceThreshold).Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	f := full.Estimate(p).Total()
	c := coal.Estimate(p).Total()
	if c > 1.1*f {
		t.Fatalf("coalesced LOSS %.0f more than 10%% above full LOSS %.0f", c, f)
	}
}

// The paper: "the quality of the schedule is not highly sensitive to
// T" around the recommended 1410.
func TestCoalesceThresholdInsensitive(t *testing.T) {
	m := testModel(t, 1)
	p := randomProblem(t, m, 256, 14)
	var ref float64
	for i, threshold := range []int{1410, 705, 2820} {
		plan, err := NewLOSSCoalesced(threshold).Schedule(p)
		if err != nil {
			t.Fatal(err)
		}
		tot := plan.Estimate(p).Total()
		if i == 0 {
			ref = tot
			continue
		}
		if math.Abs(tot-ref) > 0.12*ref {
			t.Fatalf("threshold %d changes schedule quality by >12%%: %.0f vs %.0f", threshold, tot, ref)
		}
	}
}

// Internal engine invariants: the selection must always complete a
// single path visiting every city exactly once, starting at city 0.
func TestLossEngineBuildsOnePath(t *testing.T) {
	// A small synthetic asymmetric instance with known structure.
	w := [][]float64{
		{0, 5, 9, 4, 7},
		{0, 0, 3, 8, 2},
		{0, 6, 0, 1, 9},
		{0, 2, 7, 0, 3},
		{0, 9, 1, 6, 0},
	}
	n := len(w)
	s := denseTestState(w)
	if got := s.run(n - 1); got != n-1 {
		t.Fatalf("engine chose %d edges, want %d", got, n-1)
	}
	seen := map[int32]bool{}
	count := 0
	for c := s.next[0]; c >= 0; c = s.next[c] {
		if seen[c] {
			t.Fatal("cycle in engine output")
		}
		seen[c] = true
		count++
	}
	if count != n-1 {
		t.Fatalf("path visits %d cities, want %d", count, n-1)
	}
}

// denseTestState builds a dense engine state over the square weight
// matrix w (w[i][j] is the cost from city i to city j; column 0 and
// the diagonal are ignored).
func denseTestState(w [][]float64) *lossState {
	n := len(w)
	k := n - 1
	s := newLossState(n, nil)
	s.w = make([]float64, n*k)
	for i := range w {
		for j := 1; j < n; j++ {
			s.w[i*k+j-1] = w[i][j]
		}
	}
	s.denseCandidates(make([]int32, 2*n*k))
	return s
}

// The loss rule itself: on an instance where greedy nearest-neighbor
// is provably suboptimal, the loss heuristic should pick the edge
// that avoids the forced long edge.
func TestLossRuleAvoidsForcedLongEdge(t *testing.T) {
	// From city 0, city 1 is nearest; but city 2 can ONLY be reached
	// cheaply from 0 (every other way in costs 100). Greedy nearest
	// takes 0->1 and pays 100 later; loss sees city 2's huge in-loss
	// and routes 0->2 first.
	w := [][]float64{
		{0, 1, 2},
		{0, 0, 100},
		{0, 3, 0},
	}
	n := len(w)
	s := denseTestState(w)
	if got := s.run(n - 1); got != n-1 {
		t.Fatalf("engine incomplete: %d edges", got)
	}
	if s.next[0] != 2 {
		t.Fatalf("loss rule should take 0->2 first, took 0->%d", s.next[0])
	}
	// Total: 0->2 (2) + 2->1 (3) = 5, versus greedy 0->1->2 = 101.
}

// Above maxLOSSCities the dense matrix is off the table; plain LOSS
// must degrade to the sparse-graph variant instead of erroring, and
// still return a valid permutation.
func TestLOSSTooManyCities(t *testing.T) {
	m := testModel(t, 1)
	reqs := make([]int, maxLOSSCities)
	for i := range reqs {
		reqs[i] = (i * 37) % m.Segments()
	}
	p := &Problem{Start: 0, Requests: reqs, Cost: m}
	plan, err := NewLOSS().Schedule(p)
	if err != nil {
		t.Fatalf("LOSS should fall back to SparseLOSS above maxLOSSCities: %v", err)
	}
	if err := CheckPermutation(p.Requests, plan.Order); err != nil {
		t.Fatal(err)
	}
	// The fallback must match what SparseLOSS produces directly: the
	// batch is handed over wholesale, not truncated or reordered.
	want, err := (SparseLOSS{}).Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	if !slicesEqual(plan.Order, want.Order) {
		t.Fatal("LOSS fallback plan differs from SparseLOSS plan")
	}
	// The coalesced variant handles the same batch densely.
	if _, err := NewLOSSCoalesced(DefaultCoalesceThreshold).Schedule(p); err != nil {
		t.Fatalf("coalesced LOSS should handle it: %v", err)
	}
}

func slicesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestLOSSNames(t *testing.T) {
	if NewLOSS().Name() != "LOSS" || NewLOSSCoalesced(5).Name() != "LOSS-C" {
		t.Fatal("LOSS names wrong")
	}
}
