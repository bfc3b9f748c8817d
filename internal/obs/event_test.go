package obs

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func evAt(seq int64, done float64) Event {
	return Event{Seq: seq, Object: "t0/o" + strconv.FormatInt(seq, 10),
		Tape: 3000, Drive: 0, Class: "standard", Outcome: OutcomeServed,
		ArrivalSec: done - 1, DoneSec: done}
}

func TestEventRingAddEvict(t *testing.T) {
	r := NewEventRing(3)
	for i := 1; i <= 5; i++ {
		r.Add(Event{DoneSec: float64(i)})
	}
	if r.Total() != 5 || r.Dropped() != 2 {
		t.Fatalf("total %d dropped %d, want 5/2", r.Total(), r.Dropped())
	}
	got := r.Events()
	if len(got) != 3 {
		t.Fatalf("kept %d events, want 3", len(got))
	}
	for i, ev := range got {
		if ev.DoneSec != float64(i+3) {
			t.Fatalf("kept[%d].DoneSec = %g, want %g (oldest-first tail)", i, ev.DoneSec, float64(i+3))
		}
		if ev.Seq != int64(i+3) {
			t.Fatalf("kept[%d].Seq = %d, want %d (dense 1-based)", i, ev.Seq, i+3)
		}
	}
}

func TestEventRingPreservesNonzeroSeq(t *testing.T) {
	r := NewEventRing(4)
	r.Add(Event{Seq: 42})
	r.Add(Event{})
	evs := r.Events()
	if evs[0].Seq != 42 {
		t.Fatalf("pre-stamped Seq rewritten to %d", evs[0].Seq)
	}
	if evs[1].Seq != 2 {
		t.Fatalf("auto Seq = %d, want 2 (total-based)", evs[1].Seq)
	}
}

func TestEventRingTail(t *testing.T) {
	r := NewEventRing(4)
	for i := 1; i <= 6; i++ {
		r.Add(Event{DoneSec: float64(i)})
	}
	// Emission indices 0..5; retained are 2..5.
	if got := r.Tail(6); len(got) != 0 {
		t.Fatalf("tail past the end returned %d events", len(got))
	}
	got := r.Tail(4)
	if len(got) != 2 || got[0].DoneSec != 5 || got[1].DoneSec != 6 {
		t.Fatalf("Tail(4) = %+v, want events at t=5,6", got)
	}
	// Asking for more than is retained yields only what remains.
	got = r.Tail(0)
	if len(got) != 4 || got[0].DoneSec != 3 {
		t.Fatalf("Tail(0) = %d events starting %g, want 4 starting t=3", len(got), got[0].DoneSec)
	}
}

func TestEventsJSONLRoundTrip(t *testing.T) {
	in := []Event{
		evAt(1, 10.5),
		{Seq: 2, Shard: 1, Object: "t1/o0", Tape: 3001, Drive: EventNoDrive,
			Class: "best-effort", Outcome: OutcomeRejected, ArrivalSec: 3, DoneSec: 3,
			Labels: []Label{L("rate", "120")}},
		{Seq: 3, Object: "t0/o1", Tape: 3000, Drive: -1, Class: "standard",
			Outcome: OutcomeServed, Cache: true, Route: "affinity",
			ArrivalSec: 5, DoneSec: 5.1, LocateSec: 0.05, TransferSec: 0.05},
	}
	var buf bytes.Buffer
	if err := WriteEventsJSONL(&buf, in, 0); err != nil {
		t.Fatal(err)
	}
	out, err := ReadEventsJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in %+v\nout %+v", in, out)
	}
}

func TestEventsJSONLHead(t *testing.T) {
	in := []Event{evAt(1, 1), evAt(2, 2), evAt(3, 3)}
	var buf bytes.Buffer
	if err := WriteEventsJSONL(&buf, in, 2); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != 2 {
		t.Fatalf("head 2 wrote %d lines", n)
	}
}

func TestEventsJSONLDeterministic(t *testing.T) {
	in := []Event{evAt(1, 10.5), evAt(2, 1.0/3.0)}
	var a, b bytes.Buffer
	if err := WriteEventsJSONL(&a, in, 0); err != nil {
		t.Fatal(err)
	}
	if err := WriteEventsJSONL(&b, in, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical events marshaled to different bytes")
	}
}

func TestEventAttributionSum(t *testing.T) {
	ev := Event{ArrivalSec: 1, DoneSec: 10,
		QueueSec: 2, RobotSec: 1, MountSec: 2, LocateSec: 1.5, TransferSec: 0.5, RetrySec: 1, RescueSec: 1}
	if ev.AttributionSum() != 9 || ev.SojournSec() != 9 {
		t.Fatalf("sum %g sojourn %g, want 9/9", ev.AttributionSum(), ev.SojournSec())
	}
}

func TestNilEventRingNoOps(t *testing.T) {
	var r *EventRing
	r.Add(Event{})
	if r.Events() != nil || r.Tail(0) != nil || r.Total() != 0 || r.Dropped() != 0 {
		t.Fatal("nil ring is not a no-op")
	}
}
