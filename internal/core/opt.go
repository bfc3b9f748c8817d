package core

import (
	"fmt"
	"math"
	"math/bits"
)

// OPT computes a provably minimal schedule. The paper models the
// problem as an asymmetric traveling salesman path with a fixed
// start and free end (Section 4) and solves it by exhaustive
// permutation search, which limits it to about 12 requests (936 CPU
// seconds on the paper's SparcStation). This implementation uses the
// Held-Karp dynamic program instead — O(2^n * n^2) time, O(2^n * n)
// space — which finds the identical optimum (cross-checked against
// permutation search in tests) while extending the practical range to
// n ~ 20. The paper's recommendation stands: use OPT for small
// batches (up to ~10), LOSS beyond.
type OPT struct {
	limit int
}

// ErrTooLarge is returned (wrapped) when a problem exceeds an OPT
// scheduler's request limit.
var ErrTooLarge = fmt.Errorf("core: problem too large for OPT")

// NewOPT returns an exact scheduler that accepts up to limit
// requests; limit is capped at 24 to bound the 2^n memory.
func NewOPT(limit int) OPT {
	if limit > 24 {
		limit = 24
	}
	if limit < 1 {
		limit = 1
	}
	return OPT{limit: limit}
}

// Name returns "OPT".
func (OPT) Name() string { return "OPT" }

// Limit returns the maximum accepted request count.
func (o OPT) Limit() int { return o.limit }

// optArena holds the Held-Karp working state — edge weights and the
// 2^n * n dynamic-programming tables — so repeated small-batch calls
// (the Auto policy's common case) allocate only the returned order.
// Stale parent entries are never read: the backtrack only follows
// states whose dp entry was written this call, and dp is
// re-initialized to +Inf on every call.
type optArena struct {
	start  []float64
	w      []float64 // flat n*n edge matrix
	dp     []float64
	parent []int8
}

var optArenas = arenaList[*optArena]{fresh: func() *optArena { return new(optArena) }}

func (a *optArena) tableBytes() int { return 8*(cap(a.w)+cap(a.dp)) + cap(a.parent) }

// Schedule solves the instance exactly.
func (o OPT) Schedule(p *Problem) (Plan, error) {
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	n := len(p.Requests)
	if n > o.limit {
		return Plan{}, fmt.Errorf("%w: %d requests exceeds limit %d", ErrTooLarge, n, o.limit)
	}
	if n == 0 {
		return Plan{}, nil
	}

	a := optArenas.get()
	defer optArenas.put(a)

	// Edge weights. Read times are order-independent and excluded.
	start := grown(a.start, n) // start[j]: head start -> request j
	w := grown(a.w, n*n)       // w[i*n+j]: after reading i -> request j
	for i, ri := range p.Requests {
		start[i] = p.Cost.LocateTime(p.Start, ri)
		out := p.headAfter(ri)
		for j, rj := range p.Requests {
			if i == j {
				w[i*n+j] = 0
				continue
			}
			w[i*n+j] = p.Cost.LocateTime(out, rj)
		}
	}

	// Held-Karp over subsets: dp[mask][j] is the minimal locate time
	// of a path that starts at the head position, visits exactly the
	// requests in mask, and ends having just read request j.
	size := 1 << n
	dp := grown(a.dp, size*n)
	parent := grown(a.parent, size*n)
	inf := math.Inf(1)
	for i := range dp {
		dp[i] = inf
	}
	for j := 0; j < n; j++ {
		dp[(1<<j)*n+j] = start[j]
		parent[(1<<j)*n+j] = -1
	}
	full := size - 1
	for mask := 1; mask < size; mask++ {
		base := mask * n
		// Iterating set bits (j) and unset bits (k) ascending visits
		// exactly the pairs the dense loops did, in the same order, so
		// the strict-improvement tie-break — and hence the chosen
		// schedule — is unchanged.
		for set := mask; set != 0; set &= set - 1 {
			j := bits.TrailingZeros64(uint64(set))
			cur := dp[base+j]
			if cur == inf {
				continue
			}
			wj := w[j*n : j*n+n]
			for rest := full &^ mask; rest != 0; rest &= rest - 1 {
				k := bits.TrailingZeros64(uint64(rest))
				next := (mask | 1<<k) * n
				if c := cur + wj[k]; c < dp[next+k] {
					dp[next+k] = c
					parent[next+k] = int8(j)
				}
			}
		}
	}

	a.start, a.w, a.dp, a.parent = start, w, dp, parent

	// The end city is unconstrained: take the best final request.
	bestJ, bestC := 0, math.Inf(1)
	for j := 0; j < n; j++ {
		if c := dp[full*n+j]; c < bestC {
			bestJ, bestC = j, c
		}
	}

	order := make([]int, n)
	mask, j := full, bestJ
	for i := n - 1; i >= 0; i-- {
		order[i] = p.Requests[j]
		pj := parent[mask*n+j]
		mask &^= 1 << j
		if pj < 0 {
			break
		}
		j = int(pj)
	}
	return Plan{Order: order}, nil
}

// bruteForce finds the optimum by trying every permutation, exactly
// as the paper's OPT implementation did. It exists to cross-check
// Held-Karp in tests and to reproduce the paper's Figure 6 CPU-cost
// curve for OPT.
func bruteForce(p *Problem) (Plan, float64) {
	n := len(p.Requests)
	order := make([]int, n)
	copy(order, p.Requests)
	best := make([]int, n)
	copy(best, order)
	bestCost := math.Inf(1)

	var permute func(k int)
	permute = func(k int) {
		if k == n {
			if c := estimateSized(p, order).Locate; c < bestCost {
				bestCost = c
				copy(best, order)
			}
			return
		}
		for i := k; i < n; i++ {
			order[k], order[i] = order[i], order[k]
			permute(k + 1)
			order[k], order[i] = order[i], order[k]
		}
	}
	permute(0)
	return Plan{Order: best}, bestCost
}
