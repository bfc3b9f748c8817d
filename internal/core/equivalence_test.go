package core

import (
	"testing"

	"serpentine/internal/locate"
)

// equivalenceSchedulers are the schedulers whose plans must be
// unaffected by the locate model's fast path and the batched matrix
// fill: everything except OPT (exponential) and the trivial orders.
func equivalenceSchedulers() []Scheduler {
	return []Scheduler{
		NewLOSS(),
		NewLOSSCoalesced(DefaultCoalesceThreshold),
		NewSLTF(),
		NewSLTFCoalesced(DefaultCoalesceThreshold),
		Scan{},
		Weave{},
		NewSparseLOSS(),
	}
}

// TestSchedulerFastPathEquivalence proves that every scheduler emits
// a byte-identical plan whether its cost model is the table-driven
// fast path (with the batched CostMatrix) or the original piecewise
// decomposition evaluated call by call: the fast path changes how
// estimates are computed, never their values, so plans cannot move.
func TestSchedulerFastPathEquivalence(t *testing.T) {
	for _, serial := range []int64{1, 2} {
		m := testModel(t, serial)
		ref := m.Reference()
		for _, n := range []int{1, 2, 3, 8, 96, 256} {
			p := randomProblem(t, m, n, 1000*serial+int64(n))
			for _, s := range equivalenceSchedulers() {
				fast, err := s.Schedule(p)
				if err != nil {
					t.Fatalf("tape %d %s n=%d (fast): %v", serial, s.Name(), n, err)
				}
				rp := &Problem{Start: p.Start, Requests: p.Requests, Cost: ref}
				slow, err := s.Schedule(rp)
				if err != nil {
					t.Fatalf("tape %d %s n=%d (reference): %v", serial, s.Name(), n, err)
				}
				if !slicesEqual(fast.Order, slow.Order) {
					t.Fatalf("tape %d %s n=%d: fast-path plan differs from reference plan", serial, s.Name(), n)
				}
				if err := CheckPermutation(p.Requests, fast.Order); err != nil {
					t.Fatalf("tape %d %s n=%d: %v", serial, s.Name(), n, err)
				}
			}
		}
	}
}

// TestSchedulerRerunDeterminism schedules every instance twice
// through the reused arenas: a dirty arena must never leak state into
// the next plan (same problem in, same plan out).
func TestSchedulerRerunDeterminism(t *testing.T) {
	m := testModel(t, 1)
	for _, n := range []int{1, 8, 96, 256} {
		// Two different instances back to back dirty the arenas with
		// unrelated state between the paired runs.
		pa := randomProblem(t, m, n, int64(n))
		pb := randomProblem(t, m, n/2+1, int64(n)+7)
		for _, s := range equivalenceSchedulers() {
			first, err := s.Schedule(pa)
			if err != nil {
				t.Fatalf("%s n=%d: %v", s.Name(), n, err)
			}
			if _, err := s.Schedule(pb); err != nil {
				t.Fatalf("%s n=%d (interleaved): %v", s.Name(), n, err)
			}
			again, err := s.Schedule(pa)
			if err != nil {
				t.Fatalf("%s n=%d (rerun): %v", s.Name(), n, err)
			}
			if !slicesEqual(first.Order, again.Order) {
				t.Fatalf("%s n=%d: rerun produced a different plan", s.Name(), n)
			}
		}
	}
}

// TestPerturbedSchedulerEquivalence runs the matrix-consuming
// schedulers under the Figure 10 perturbed-cost decorator, whose
// batched fill must match its per-call behavior through whole plans.
func TestPerturbedSchedulerEquivalence(t *testing.T) {
	m := testModel(t, 1)
	base := randomProblem(t, m, 96, 42)
	pert := &locate.Perturbed{Base: m, E: 5}
	p := &Problem{Start: base.Start, Requests: base.Requests, Cost: pert}
	// The same perturbed cost over the reference decomposition: its
	// batched fill degrades to per-call evaluation underneath.
	slowPert := &locate.Perturbed{Base: m.Reference(), E: 5}
	rp := &Problem{Start: base.Start, Requests: base.Requests, Cost: slowPert}
	for _, s := range []Scheduler{NewLOSS(), NewSLTF()} {
		fast, err := s.Schedule(p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		slow, err := s.Schedule(rp)
		if err != nil {
			t.Fatalf("%s (per-call): %v", s.Name(), err)
		}
		if !slicesEqual(fast.Order, slow.Order) {
			t.Fatalf("%s: batched perturbed plan differs from per-call perturbed plan", s.Name())
		}
	}
}
