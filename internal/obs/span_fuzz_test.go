package obs

import "testing"

// FuzzSpanStore drives the bounded span store with an arbitrary
// op-sequence and checks its invariants: the ring never exceeds its
// cap, total always equals kept plus dropped, eviction is strictly
// oldest-first, and per-trace span IDs stay dense and increasing.
func FuzzSpanStore(f *testing.F) {
	f.Add(1, []byte{0})
	f.Add(3, []byte{0, 1, 2, 3, 4, 5, 255, 0})
	f.Add(16, []byte{9, 9, 9, 128, 7, 7, 200, 1})
	f.Fuzz(func(t *testing.T, capSpans int, ops []byte) {
		if capSpans < -1024 || capSpans > 1<<12 {
			return
		}
		tr := NewTracer(capSpans)
		effCap := capSpans
		if effCap < 1 {
			effCap = 1
		}
		h := tr.StartTrace()
		var lastID uint64
		var recorded []Span
		for i, op := range ops {
			switch {
			case op >= 224: // open a fresh trace
				h = tr.StartTrace()
				lastID = 0
			case op >= 192: // replay an external span
				s := Span{Trace: 999, ID: uint64(i) + 1, Name: "ext", StartSec: float64(i)}
				tr.Record(s)
				recorded = append(recorded, s)
			default: // regular start/end cycle with op%3 attrs
				sp := h.Start("op", nil, float64(i))
				for a := byte(0); a < op%3; a++ {
					sp.AttrInt("k", int(a))
				}
				sp.End(float64(i) + 0.5)
				if got := sp.SpanID(); got != lastID+1 {
					t.Fatalf("span ID %d after %d: not a dense counter", got, lastID)
				}
				lastID++
				recorded = append(recorded, Span{Trace: h.ID(), ID: lastID})
			}

			kept := tr.Spans()
			if len(kept) > effCap {
				t.Fatalf("store holds %d spans, cap %d", len(kept), effCap)
			}
			if tr.Total() != int64(len(recorded)) {
				t.Fatalf("total %d, recorded %d", tr.Total(), len(recorded))
			}
			if tr.Total() != int64(len(kept))+tr.Dropped() {
				t.Fatalf("total %d != kept %d + dropped %d", tr.Total(), len(kept), tr.Dropped())
			}
			// Eviction is oldest-first: the retained spans must be
			// exactly the tail of the record sequence, in order.
			tail := recorded[len(recorded)-len(kept):]
			for j, s := range kept {
				if s.Trace != tail[j].Trace || s.ID != tail[j].ID {
					t.Fatalf("kept[%d] = trace %d span %d, want trace %d span %d",
						j, s.Trace, s.ID, tail[j].Trace, tail[j].ID)
				}
			}
		}
	})
}
