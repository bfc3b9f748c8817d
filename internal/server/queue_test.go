package server

import "testing"

func TestAdmissionQueueFIFO(t *testing.T) {
	q := NewAdmissionQueue(4)
	for i := 0; i < 4; i++ {
		if !q.Offer(Request{ID: i}) {
			t.Fatalf("offer %d rejected below capacity", i)
		}
	}
	if q.Offer(Request{ID: 4}) {
		t.Fatal("offer accepted at capacity")
	}
	got := q.PopNAppend(nil, 2)
	if len(got) != 2 || got[0].ID != 0 || got[1].ID != 1 {
		t.Fatalf("PopNAppend(nil, 2) = %v, want IDs 0,1", got)
	}
	if !q.Offer(Request{ID: 5}) {
		t.Fatal("offer rejected after pops freed space")
	}
	// Draining appends after what the buffer already holds.
	rest := q.PopNAppend(got[:1], 0)
	if len(rest) != 4 || rest[0].ID != 0 || rest[1].ID != 2 || rest[3].ID != 5 {
		t.Fatalf("drain = %v, want IDs 0 (kept), 2,3,5", rest)
	}
	if q.Len() != 0 || q.MaxDepth() != 4 {
		t.Fatalf("len=%d maxDepth=%d after drain, want 0/4", q.Len(), q.MaxDepth())
	}
	if got := q.PopNAppend(nil, 3); got != nil {
		t.Fatalf("pop from an empty queue = %v, want the buffer back", got)
	}
}

func TestAdmissionQueueMinimumCapacity(t *testing.T) {
	for _, capacity := range []int{0, -3} {
		q := NewAdmissionQueue(capacity)
		if !q.Offer(Request{}) || q.Offer(Request{}) {
			t.Fatalf("capacity %d: want one request admitted and the second rejected", capacity)
		}
	}
}

func TestAdmissionQueueCompaction(t *testing.T) {
	// Many offer/pop cycles on a small queue must not grow the backing
	// slice without bound; Len/ordering stay correct throughout.
	q := NewAdmissionQueue(8)
	id := 0
	for cycle := 0; cycle < 1000; cycle++ {
		for q.Len() < 8 {
			if !q.Offer(Request{ID: id}) {
				t.Fatalf("cycle %d: offer rejected below capacity", cycle)
			}
			id++
		}
		got := q.PopNAppend(nil, 5)
		for i := 1; i < len(got); i++ {
			if got[i].ID != got[i-1].ID+1 {
				t.Fatalf("cycle %d: out-of-order pop %v", cycle, got)
			}
		}
	}
}

func TestAdmissionQueueCompactionClearsTail(t *testing.T) {
	// Compaction copies the live tail down; the vacated half of the
	// backing array must be zeroed so popped requests are not pinned
	// by the queue's storage.
	q := NewAdmissionQueue(16)
	for i := 0; i < 16; i++ {
		if !q.Offer(Request{ID: i + 1, Segment: 7, ArrivalSec: 3.5, Deadline: 9, BestEffort: true}) {
			t.Fatalf("offer %d rejected below capacity", i+1)
		}
	}
	if got := q.PopNAppend(nil, 12); len(got) != 12 {
		t.Fatalf("PopNAppend(nil, 12) returned %d requests", len(got))
	}
	for i, r := range q.reqs[q.Len():cap(q.reqs)] {
		if r != (Request{}) {
			t.Fatalf("stale request %+v at vacated backing slot %d after compaction", r, i)
		}
	}
	rest := q.PopNAppend(nil, -1)
	if len(rest) != 4 {
		t.Fatalf("drain returned %d requests, want 4", len(rest))
	}
	for i, r := range rest {
		if r.ID != 13+i {
			t.Fatalf("drain order: got ID %d at %d, want %d", r.ID, i, 13+i)
		}
	}
}
