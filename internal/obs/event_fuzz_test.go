package obs

import "testing"

// FuzzWideEventRing drives the bounded event ring with an arbitrary
// event sequence and checks conservation (events in == retained +
// evicted), the cap, and sequence numbering: an event without a Seq
// gets its 1-based emission position, one that carries a Seq keeps it
// (ops >= 250), and the retained events are the newest, oldest first.
// Tail at every offset is FuzzRing's.
func FuzzWideEventRing(f *testing.F) {
	f.Add(1, []byte{0})
	f.Add(4, []byte{0, 1, 2, 3, 4, 250, 0, 7})
	f.Add(16, []byte{9, 200, 9, 128, 7, 255, 1})
	f.Fuzz(func(t *testing.T, capEvents int, ops []byte) {
		if capEvents < -16 || capEvents > 1<<10 {
			return
		}
		r := NewEventRing(capEvents)
		effCap := capEvents
		if effCap < 1 {
			effCap = 1
		}
		var added int64
		var seqs []int64 // expected Seq of every added event
		for i, op := range ops {
			ev := Event{DoneSec: float64(i), Object: "o"}
			if op >= 250 {
				ev.Seq = 1000 + int64(i)
			}
			r.Add(ev)
			added++
			if ev.Seq == 0 {
				ev.Seq = added
			}
			seqs = append(seqs, ev.Seq)
			kept := r.Events()
			if len(kept) > effCap {
				t.Fatalf("ring holds %d events, cap %d", len(kept), effCap)
			}
			if r.Total() != added {
				t.Fatalf("total %d, added %d", r.Total(), added)
			}
			if r.Total() != int64(len(kept))+r.Dropped() {
				t.Fatalf("conservation: total %d != kept %d + dropped %d",
					r.Total(), len(kept), r.Dropped())
			}
			want := seqs[len(seqs)-len(kept):]
			for j, ev := range kept {
				if ev.Seq != want[j] {
					t.Fatalf("kept[%d].Seq = %d, want %d", j, ev.Seq, want[j])
				}
			}
			// Tail(0) must return exactly the retained events.
			if tail := r.Tail(0); len(tail) != len(kept) {
				t.Fatalf("Tail(0) %d events, Events %d", len(tail), len(kept))
			}
		}
	})
}

// FuzzSLOWindow drives one objective's engine with an arbitrary
// outcome sequence on a nondecreasing clock and checks: window totals
// never exceed what was recorded, the SLI stays in [0,1] (1 on empty,
// never NaN), the budget is never negative, and burn rates are
// non-negative.
func FuzzSLOWindow(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{255, 0, 255, 0, 10, 20})
	f.Add([]byte{128})
	f.Fuzz(func(t *testing.T, ops []byte) {
		e, err := NewSLOEngine(SLOConfig{
			Objectives: []Objective{{Name: "avail", Target: 0.99}},
			WindowsSec: []float64{10, 100},
		})
		if err != nil {
			t.Fatal(err)
		}
		now := 0.0
		var recorded int64
		for _, op := range ops {
			now += float64(op % 16)
			if op%5 == 0 {
				e.Advance(now)
			} else {
				e.Record("standard", now, op%3 != 0, float64(op))
				recorded++
			}
			for _, os := range e.Status() {
				if os.Total != recorded {
					t.Fatalf("cumulative total %d, recorded %d", os.Total, recorded)
				}
				if os.BudgetRemaining < 0 {
					t.Fatalf("budget remaining %g < 0", os.BudgetRemaining)
				}
				for _, ws := range os.Windows {
					if ws.Total > recorded || ws.Total < 0 {
						t.Fatalf("window %gs holds %d of %d recorded", ws.WindowSec, ws.Total, recorded)
					}
					if ws.Bad < 0 || ws.Bad > ws.Total {
						t.Fatalf("window %gs bad %d of total %d", ws.WindowSec, ws.Bad, ws.Total)
					}
					if ws.SLI < 0 || ws.SLI > 1 || ws.SLI != ws.SLI {
						t.Fatalf("window %gs SLI %g outside [0,1]", ws.WindowSec, ws.SLI)
					}
					if ws.Total == 0 && ws.SLI != 1 {
						t.Fatalf("empty window SLI %g, want 1", ws.SLI)
					}
					if ws.Burn < 0 {
						t.Fatalf("burn %g < 0", ws.Burn)
					}
				}
			}
		}
	})
}
