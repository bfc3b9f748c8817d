package tertiary

import (
	"testing"
)

func qpending(serial int64, start int, arrival float64) pending {
	return pending{
		req: Request{ObjectID: "x", Arrival: arrival},
		obj: Object{Tape: serial, Start: start},
	}
}

func TestBatchQueueTakePreservesArrivalOrder(t *testing.T) {
	q := newBatchQueue()
	// Interleave two tapes; within a tape, pushes are arrival order.
	for i := 0; i < 6; i++ {
		q.push(qpending(int64(100+i%2), i*10, float64(i)))
	}
	if q.len() != 6 {
		t.Fatalf("len %d, want 6", q.len())
	}
	got := q.take(nil, 100, 2)
	if len(got) != 2 || got[0].obj.Start != 0 || got[1].obj.Start != 20 {
		t.Fatalf("take(100, 2) = %+v", got)
	}
	if q.len() != 4 {
		t.Fatalf("len %d after take, want 4", q.len())
	}
	// limit 0 drains the rest of the tape.
	rest := q.take(nil, 100, 0)
	if len(rest) != 1 || rest[0].obj.Start != 40 {
		t.Fatalf("take(100, 0) = %+v", rest)
	}
	if _, ok := q.perTape[100]; ok {
		t.Fatal("drained tape still present in perTape")
	}
	if q.take(nil, 999, 0) != nil {
		t.Fatal("take on unknown tape returned a batch")
	}
	// The drained queue is reused, empty, by the next new group, and
	// take appends to the buffer it is given.
	q.push(qpending(102, 7, 9))
	if len(q.spare) != 0 || q.perTape[102].len() != 1 || q.perTape[102].oldest() != 9 {
		t.Fatalf("new group did not start from the drained queue: spare %d, group %+v", len(q.spare), q.perTape[102])
	}
	buf := q.take(rest[:1], 102, 0)
	if len(buf) != 2 || buf[0].obj.Start != 40 || buf[1].obj.Start != 7 {
		t.Fatalf("take(buf, 102, 0) = %+v", buf)
	}
}

func TestBatchQueuePickSerialZero(t *testing.T) {
	q := newBatchQueue()
	// Serial 0 has the most pending work: it must win the pick even
	// though 0 doubled as the seed's "no candidate" sentinel.
	q.push(qpending(0, 0, 0))
	q.push(qpending(0, 10, 1))
	q.push(qpending(7, 0, 0))
	serial, ok := q.pick(nil)
	if !ok || serial != 0 {
		t.Fatalf("pick = %d, %v; want 0, true", serial, ok)
	}
	// With serial 0 excluded (loaded elsewhere), 7 is next.
	serial, ok = q.pick(map[int64]bool{0: true})
	if !ok || serial != 7 {
		t.Fatalf("pick excluding 0 = %d, %v; want 7, true", serial, ok)
	}
	// Everything excluded: no candidate, reported explicitly rather
	// than through a sentinel value.
	if _, ok := q.pick(map[int64]bool{0: true, 7: true}); ok {
		t.Fatal("pick found a tape with all tapes excluded")
	}
}

func TestBatchQueuePickTieBreaks(t *testing.T) {
	q := newBatchQueue()
	q.push(qpending(5, 0, 2))
	q.push(qpending(3, 0, 2))
	// Equal counts and equal oldest arrival: lowest serial wins.
	if serial, _ := q.pick(nil); serial != 3 {
		t.Fatalf("equal-count equal-age pick = %d, want 3", serial)
	}
	// Older work wins over serial order.
	q.push(qpending(9, 0, 1))
	if serial, _ := q.pick(nil); serial != 9 {
		t.Fatalf("oldest-work pick = %d, want 9", serial)
	}
}

func TestBatchQueueCompaction(t *testing.T) {
	q := newBatchQueue()
	for i := 0; i < 100; i++ {
		q.push(qpending(1, i, float64(i)))
	}
	// Consume past the halfway mark in small bites; the backing slice
	// must compact instead of retaining every served entry.
	for i := 0; i < 6; i++ {
		q.take(nil, 1, 10)
	}
	tq := q.perTape[1]
	if tq.head != 0 {
		t.Fatalf("head %d after compaction threshold, want 0", tq.head)
	}
	if len(tq.reqs) != 40 {
		t.Fatalf("backing slice holds %d entries, want the 40 live ones", len(tq.reqs))
	}
	if got := q.take(nil, 1, 0); len(got) != 40 || got[0].obj.Start != 60 {
		t.Fatalf("post-compaction drain = %d entries starting %d", len(got), got[0].obj.Start)
	}
}

// The seed's splitBatch rebuilt the whole queue on every batch —
// O(queue) per take, O(n²) per run. The benchmark pair documents the
// win from head-index compaction.
func benchPendings(n int) []pending {
	ps := make([]pending, n)
	for i := range ps {
		ps[i] = qpending(int64(100+i%8), i, float64(i))
	}
	return ps
}

func BenchmarkBatchQueueTake(b *testing.B) {
	src := benchPendings(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := newBatchQueue()
		for _, p := range src {
			q.push(p)
		}
		for q.len() > 0 {
			serial, ok := q.pick(nil)
			if !ok {
				b.Fatal("pick failed with work pending")
			}
			if len(q.take(nil, serial, 16)) == 0 {
				b.Fatal("empty take")
			}
		}
	}
}

func BenchmarkBatchQueueSeedSplit(b *testing.B) {
	src := benchPendings(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		queue := append([]pending(nil), src...)
		for len(queue) > 0 {
			serial := refPickTape(queue)
			batch, rest := refSplitBatch(queue, len(queue), serial, 16)
			if len(batch) == 0 {
				b.Fatal("empty batch")
			}
			queue = rest
		}
	}
}
