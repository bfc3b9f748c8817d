package main

import (
	"fmt"
	"sort"

	"serpentine/internal/geometry"
	"serpentine/internal/tertiary"
)

// tape-queue is the paper's own regime: one drive, a few cartridges,
// uniform-random single-segment reads, and a closed loop in virtual
// time holding a fixed queue of outstanding requests. Every completion
// is replaced by a fresh request at max(Done, clock). No batch limit,
// cache, faults or observability: the scheduler (core) dominates the
// host time and plan quality moves ios_per_hour.
type tqShape struct {
	tapes       int
	objects     int // single-segment objects per cartridge
	outstanding int
	requests    int // reads offered per repetition
}

var tqDefault = tqShape{tapes: 4, objects: 4096, outstanding: 384, requests: 6144}

type tapeQueue struct {
	base        *tertiary.Library
	ids         []string // object of every offer, in offer order
	outstanding int
}

func setupTapeQueue(seed int64, tr *tracer) (instance, error) {
	return newTapeQueue(seed, tr, tqDefault)
}

func newTapeQueue(seed int64, tr *tracer, sh tqShape) (*tapeQueue, error) {
	tr.begin("tertiary.SweepStore", -1)
	base, err := tertiary.SweepStore(geometry.DLT4000(), sh.tapes, sh.objects, 1, 0, 0)
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("workload.gen", -1)
	ids := uniformIDs(base.Objects(), sh.requests, seed)
	tr.end()
	if err := warmLibrary(base, tr); err != nil {
		return nil, err
	}
	return &tapeQueue{base: base, ids: ids, outstanding: sh.outstanding}, nil
}

// warmLibrary runs one request per cartridge through the library, so
// every cartridge is mounted once and the drive emulation's lazily
// built per-cartridge state exists before timing starts.
func warmLibrary(base *tertiary.Library, tr *tracer) error {
	tr.begin("warmup", -1)
	defer tr.end()
	first := make(map[int64]string)
	for _, o := range base.Objects() {
		if _, ok := first[o.Tape]; !ok {
			first[o.Tape] = o.ID
		}
	}
	var reqs []tertiary.Request
	for _, serial := range base.Tapes() {
		reqs = append(reqs, tertiary.Request{ObjectID: first[serial]})
	}
	tr.begin("tertiary.Library.Run", -1)
	_, m, err := base.Run(reqs)
	tr.end()
	if err != nil {
		return err
	}
	if m.Served != len(reqs) {
		return checkf("warm-up served %d of %d", m.Served, len(reqs))
	}
	return nil
}

func (q *tapeQueue) run(tr *tracer) (outcome, error) {
	cfg := q.base.Config()
	cfg.Scheduler = scheduler(tr)
	lib := q.base.Clone(cfg)
	comps, m, err := closedLoop(lib, q.ids, q.outstanding, tr)
	if err != nil {
		return outcome{}, err
	}
	t := newTally()
	if err := t.completions(comps); err != nil {
		return outcome{}, err
	}
	t.library(m, cfg.Drives, len(q.ids))
	t.o.offered, t.o.reads = len(q.ids), len(q.ids)
	t.o.served, t.o.failed, t.o.rejected, t.o.shed = m.Served, m.Failed, m.Rejected, m.Shed
	t.o.makespan = m.Makespan
	o := t.finish()
	if err := conserve("tape-queue", o.reads, o.served, o.failed, o.rejected, o.shed); err != nil {
		return outcome{}, err
	}
	if len(comps) != m.Served {
		return outcome{}, checkf("tape-queue: %d completions for %d served", len(comps), m.Served)
	}
	return o, nil
}

// closedLoop drives the library's Runner as a closed loop: the first
// outstanding requests arrive at time 0, and each completion's
// replacement (the next object in ids) arrives at max(Done, clock),
// until every object in ids has been offered; Finish drains the rest.
func closedLoop(lib *tertiary.Library, ids []string, outstanding int, tr *tracer) ([]tertiary.Completion, tertiary.Metrics, error) {
	tr.begin("tertiary.Library.StartRun", -1)
	r, err := lib.StartRun()
	tr.end()
	if err != nil {
		return nil, tertiary.Metrics{}, err
	}
	next, last := 0, 0.0
	offer := func(at float64) error {
		tr.begin("tertiary.Runner.Offer", int64(next))
		err := r.Offer(tertiary.Request{ObjectID: ids[next], Arrival: at})
		tr.end()
		next++
		last = at
		return err
	}
	for next < min(outstanding, len(ids)) {
		if err := offer(0); err != nil {
			return nil, tertiary.Metrics{}, err
		}
	}
	seen := 0
	var dones []float64
	for next < len(ids) {
		tr.begin("tertiary.Runner.AdvanceTo", -1)
		err := r.AdvanceTo(last)
		tr.end()
		if err != nil {
			return nil, tertiary.Metrics{}, err
		}
		done := r.Completed()
		if len(done) == seen {
			return nil, tertiary.Metrics{}, fmt.Errorf("closed loop stalled at %g s with %d offered", r.Now(), next)
		}
		// Completions are recorded at dispatch, in record order;
		// replacements are offered in completion order.
		dones = dones[:0]
		for _, c := range done[seen:] {
			dones = append(dones, c.Done)
		}
		seen = len(done)
		sort.Float64s(dones)
		for _, d := range dones {
			if next == len(ids) {
				break
			}
			if err := offer(max(d, r.Now(), last)); err != nil {
				return nil, tertiary.Metrics{}, err
			}
		}
	}
	tr.begin("tertiary.Runner.Finish", -1)
	comps, m, err := r.Finish()
	tr.end()
	return comps, m, err
}
