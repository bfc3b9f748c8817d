package tertiary

// batchQueue holds the admitted-but-undispatched requests grouped by
// cartridge, each group in arrival order. Groups consume from the
// head with index compaction — the server.AdmissionQueue.PopN
// technique — so taking a batch costs O(batch), not O(remaining).
// The seed implementation rebuilt the whole remaining queue on every
// mount decision, which is quadratic under sustained load; see
// BenchmarkBatchQueue for the comparison.
//
// A cartridge's group leaves perTape when it drains, so that pick
// only ever sees cartridges with work; its tapeQueue goes on a spare
// list and the next new group reuses it, backing array and all, so a
// cartridge that drains and refills does not regrow its queue.
type batchQueue struct {
	perTape map[int64]*tapeQueue
	spare   []*tapeQueue
	total   int
}

// tapeQueue is one cartridge's pending requests in arrival order.
type tapeQueue struct {
	reqs []pending
	head int
}

func newBatchQueue() *batchQueue {
	return &batchQueue{perTape: make(map[int64]*tapeQueue)}
}

// push appends one admitted request to its cartridge's group.
// Requests must be pushed in arrival order.
func (q *batchQueue) push(p pending) {
	tq := q.perTape[p.obj.Tape]
	if tq == nil {
		if n := len(q.spare); n > 0 {
			tq = q.spare[n-1]
			q.spare = q.spare[:n-1]
		} else {
			tq = &tapeQueue{}
		}
		q.perTape[p.obj.Tape] = tq
	}
	tq.reqs = append(tq.reqs, p)
	q.total++
}

// len returns the number of queued requests across all cartridges.
func (q *batchQueue) len() int { return q.total }

func (tq *tapeQueue) len() int { return len(tq.reqs) - tq.head }

// oldest returns the arrival time of the longest-waiting request in a
// non-empty group.
func (tq *tapeQueue) oldest() float64 { return tq.reqs[tq.head].req.Arrival }

// take removes up to limit requests for the cartridge in arrival
// order (limit <= 0 drains the group) and appends them to dst. The
// dead prefix is compacted once it dominates the backing array,
// keeping push amortized O(1) without unbounded growth.
func (q *batchQueue) take(dst []pending, serial int64, limit int) []pending {
	tq := q.perTape[serial]
	if tq == nil {
		return dst
	}
	n := tq.len()
	if limit > 0 && limit < n {
		n = limit
	}
	dst = append(dst, tq.reqs[tq.head:tq.head+n]...)
	tq.head += n
	q.total -= n
	if tq.len() == 0 {
		delete(q.perTape, serial)
		tq.reqs, tq.head = tq.reqs[:0], 0
		q.spare = append(q.spare, tq)
	} else if tq.head > len(tq.reqs)/2 {
		tq.reqs = append(tq.reqs[:0], tq.reqs[tq.head:]...)
		tq.head = 0
	}
	return dst
}

// pick chooses the next cartridge to mount among those not excluded:
// the one with the most pending requests, ties broken by the oldest
// waiting request and then by the smaller serial, which bounds
// starvation while keeping batches dense and makes the choice
// deterministic despite map iteration. "No candidate yet" is tracked
// with an explicit boolean rather than a serial-0 sentinel, so a
// legal cartridge serial 0 behaves like any other.
func (q *batchQueue) pick(excluded map[int64]bool) (int64, bool) {
	var (
		best  int64
		found bool
	)
	for serial, tq := range q.perTape {
		if excluded[serial] {
			continue
		}
		if !found {
			best, found = serial, true
			continue
		}
		bq := q.perTape[best]
		switch {
		case tq.len() > bq.len():
			best = serial
		case tq.len() == bq.len() && tq.oldest() < bq.oldest():
			best = serial
		case tq.len() == bq.len() && tq.oldest() == bq.oldest() && serial < best:
			best = serial
		}
	}
	return best, found
}

// pickFor is pick for the dispatch loop's hot path: instead of a
// freshly built exclusion map it takes the run's standing
// cartridge-location index (serial -> drive holding it) and the asking
// drive, excluding exactly the cartridges loaded in *other* drives.
// Same candidates, same tie-breaks, no per-dispatch allocation.
func (q *batchQueue) pickFor(loadedBy map[int64]int, self int) (int64, bool) {
	var (
		best  int64
		found bool
	)
	for serial, tq := range q.perTape {
		if owner, loaded := loadedBy[serial]; loaded && owner != self {
			continue
		}
		if !found {
			best, found = serial, true
			continue
		}
		bq := q.perTape[best]
		switch {
		case tq.len() > bq.len():
			best = serial
		case tq.len() == bq.len() && tq.oldest() < bq.oldest():
			best = serial
		case tq.len() == bq.len() && tq.oldest() == bq.oldest() && serial < best:
			best = serial
		}
	}
	return best, found
}
