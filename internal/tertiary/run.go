package tertiary

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"serpentine/internal/core"
	"serpentine/internal/drive"
	"serpentine/internal/fault"
	"serpentine/internal/obs"
	"serpentine/internal/server"
	"serpentine/internal/sim"
)

// driveState tracks one transport through the simulation. Emptiness
// is an explicit flag, not a sentinel serial: cartridge serial 0 is
// as legal as any other. The states live in one flat slice on the
// runState so the dispatch loop walks contiguous memory.
type driveState struct {
	id     int
	dev    *drive.Drive
	serial int64
	loaded bool
	idle   bool
	busy   float64
	passes float64
	mounts int // exchanges into this drive, for fault-seed derivation

	// base maps the mounted device's clock (restarting at zero on
	// every exchange) onto the run's absolute virtual time: a drive
	// op at device time t happened at base + t. curBatch is the span
	// of the batch the drive is executing; leaf spans nest there.
	base     float64
	curBatch *obs.SpanHandle

	// Lifecycle outage window (only advanced when lifecycle faults
	// are armed): the drive is down on [downAt, repairedAt). Windows
	// are drawn lazily from the drive's private MTTF/MTTR stream as
	// the virtual clock passes them — the heap never carries failure
	// events for the idle future, so a zero-rate run pushes exactly
	// the events it always did. outCounted dedups the DriveFailures
	// count (one per window however often the window is observed);
	// rescue holds the requests stranded by a mid-batch death between
	// the death and the robot unloading the cartridge.
	downAt     float64
	repairedAt float64
	outCounted float64
	rescue     []pending

	// dl is the drive's metric label; opsC caches the per-op counters
	// so the trace hook's fast path renders no metric keys. traceFn is
	// the hook itself, built once and re-attached on every exchange.
	dl      obs.Label
	opsC    [drive.NumOps]*obs.Counter
	traceFn drive.TraceFunc
}

// runState is one Run's event loop.
type runState struct {
	l         *Library
	cfg       Config
	arrivals  []pending // in arrival order; arrivals[i] is request base+i
	next      int       // index in arrivals of the next un-admitted arrival
	base      int       // requests before it are admitted and dropped
	queueCap  int
	adm       *server.AdmissionQueue
	q         *batchQueue
	drives    []driveState
	loadedBy  map[int64]int // cartridge serial -> drive holding it (robotHeld while in transit)
	events    eventHeap
	robotFree float64 // virtual time the robot arm finishes its last exchange

	// Lifecycle-fault state, all nil/empty unless Config.Lifecycle is
	// armed: the lifecycle generator, the brownout admission breaker,
	// the permanently lost cartridges, and the per-cartridge fetch
	// ordinals feeding the loss draws. requeues holds the payloads of
	// pending evRequeue events (rescued batches and replica
	// redirects), indexed by the event's ref. hasDeadlines short-
	// circuits the per-batch expiry scan when no request carries one.
	lc           *fault.Lifecycle
	breaker      *server.Breaker
	dead         map[int64]bool
	fetches      map[int64]int
	requeues     []requeueBatch
	hasDeadlines bool

	// Event-loop clock. now is the current virtual time; boundary
	// reports whether now is a FixedWindow boundary. Keeping the clock
	// on the state (instead of locals in Run) lets stepTo advance the
	// loop incrementally, which is how a fleet Runner embeds the shard
	// between externally routed arrivals.
	now      float64
	boundary bool
	finished bool
	reg      *obs.Registry
	trace    *obs.TraceHandle
	root     *obs.SpanHandle
	done     []Completion
	m        Metrics

	// ex is the run's one recovering executor, re-pointed at the
	// mounted drive per size class; prob is the reusable scheduling
	// problem handed to it.
	ex   sim.Executor
	prob core.Problem

	// Cached metric handles. Registry lookups render and hash the full
	// label set per call; the hot path resolves each series once and
	// holds the handle. Resolution stays lazy so the set of series a
	// run creates — and therefore every committed metrics dump — is
	// unchanged.
	cRejected *obs.Counter
	cUnmounts *obs.Counter
	cBatches  *obs.Counter
	cServed   *obs.Counter
	cFailed   *obs.Counter
	cShed     *obs.Counter
	cRescued  *obs.Counter
	cReplica  *obs.Counter
	cLostCart *obs.Counter
	cDriveDn  *obs.Counter
	cStalls   *obs.Counter
	cMounts   map[int64]*obs.Counter
	hLatency  map[int64]*obs.Histogram
	hRobotW   *obs.Histogram
	hBatchSz  *obs.Histogram
	hBatchSec *obs.Histogram
	hOpSec    [drive.NumOps]*obs.Histogram

	// Per-batch scratch, reused across batches: the distinct extent
	// starts of one size class (uniq becomes the scheduling problem's
	// request list) and the start -> requests multimap (slotOf indexes
	// into slots, whose per-slot slices keep their backing arrays).
	// Both maps drain back to empty by the end of each batch.
	uniq   []int
	slotOf map[int]int32
	slots  [][]pending
	admBuf []server.Request
	// taken backs the batch serve cuts off the backlog.
	taken []pending
}

// robotHeld is the loadedBy sentinel for a cartridge in the robot's
// gripper (being unloaded from a dead drive): no drive may pick it
// until the requeue event puts it back on the shelf.
const robotHeld = -1

// requeueBatch is the payload of one evRequeue event: requests going
// back to the backlog once the robot has shelved a dead drive's
// cartridge (release set, serial identifying it) or a failed read has
// redirected to a replica (release false).
type requeueBatch struct {
	serial  int64
	release bool
	ps      []pending
}

func (s *runState) counter(name string, extra ...obs.Label) *obs.Counter {
	return s.reg.Counter(name, append(extra, s.cfg.Labels...)...)
}

func (s *runState) histogram(name string, extra ...obs.Label) *obs.Histogram {
	return s.reg.Histogram(name, append(extra, s.cfg.Labels...)...)
}

func (s *runState) gauge(name string, extra ...obs.Label) *obs.Gauge {
	return s.reg.Gauge(name, append(extra, s.cfg.Labels...)...)
}

func (s *runState) mountsCounter(serial int64) *obs.Counter {
	c := s.cMounts[serial]
	if c == nil {
		c = s.counter("mounts_total", obs.L("tape", strconv.FormatInt(serial, 10)))
		s.cMounts[serial] = c
	}
	return c
}

func (s *runState) latencyHist(serial int64) *obs.Histogram {
	h := s.hLatency[serial]
	if h == nil {
		h = s.histogram("latency_seconds", obs.L("tape", strconv.FormatInt(serial, 10)))
		s.hLatency[serial] = h
	}
	return h
}

// Run serves every request and returns the completions (in completion
// order) and run metrics. Requests may arrive at any time; the
// simulation admits them through a bounded queue, groups the backlog
// by cartridge, and dispatches idle drives per the batching policy,
// preferring the cartridge with the oldest waiting request among
// those with the most work, which bounds starvation while keeping
// batches dense. A cartridge mounted in one drive is never picked by
// another.
func (l *Library) Run(requests []Request) ([]Completion, Metrics, error) {
	s, err := l.newRun(requests)
	if err != nil {
		return nil, Metrics{}, err
	}
	if err := s.stepTo(math.Inf(1)); err != nil {
		return nil, Metrics{}, err
	}
	return s.close()
}

// stepTo is the central dispatch over the shared event heap: wake
// events due at the current clock, admit arrivals up to it, hand work
// to every idle drive, then advance to the next drive completion,
// arrival, or window boundary — stopping once the next step would land
// after until. Each pass is idempotent at a fixed clock, so calling
// stepTo repeatedly (the incremental Runner does, with new arrivals
// offered in between) replays the exact event sequence one monolithic
// stepTo(+Inf) produces.
func (s *runState) stepTo(until float64) error {
	for {
		s.wake(s.now)
		s.admit(s.now)
		if err := s.dispatch(s.now, s.boundary); err != nil {
			return err
		}
		t, boundary, ok := s.nextTime(s.now)
		if !ok || t > until {
			return nil
		}
		s.now, s.boundary = t, boundary
	}
}

// close checks no request was stranded and folds up the run summary.
func (s *runState) close() ([]Completion, Metrics, error) {
	s.finished = true
	if stranded := s.q.len() + s.adm.Len(); stranded > 0 || s.next < len(s.arrivals) {
		return nil, Metrics{}, fmt.Errorf("tertiary: internal: %d requests stranded at end of run",
			stranded+len(s.arrivals)-s.next)
	}
	s.finish()
	return s.done, s.m, nil
}

// resolve validates one request against the catalog and the library's
// deadline policy, returning it as a pending entry.
func (l *Library) resolve(i int, r Request) (pending, bool, error) {
	o, ok := l.catalog.Get(r.ObjectID)
	if !ok {
		return pending{}, false, fmt.Errorf("tertiary: request for unknown object %q", r.ObjectID)
	}
	if math.IsNaN(r.Arrival) || math.IsInf(r.Arrival, 0) {
		return pending{}, false, fmt.Errorf("tertiary: request %d arrives at %g", i, r.Arrival)
	}
	if r.Deadline < 0 || math.IsNaN(r.Deadline) || math.IsInf(r.Deadline, 0) {
		return pending{}, false, fmt.Errorf("tertiary: request %d with deadline %g", i, r.Deadline)
	}
	if r.Deadline == 0 && l.cfg.DeadlineSec > 0 {
		r.Deadline = r.Arrival + l.cfg.DeadlineSec
	}
	return pending{req: r, obj: o}, r.Deadline > 0, nil
}

// newRun validates the config and the request stream and sets up the
// event-loop state.
func (l *Library) newRun(requests []Request) (*runState, error) {
	if err := l.cfg.validate(); err != nil {
		return nil, err
	}
	arrivals := make([]pending, 0, len(requests))
	hasDeadlines := false
	for i, r := range requests {
		p, dl, err := l.resolve(i, r)
		if err != nil {
			return nil, err
		}
		hasDeadlines = hasDeadlines || dl
		arrivals = append(arrivals, p)
	}
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].req.Arrival < arrivals[j].req.Arrival })

	queueCap := l.cfg.QueueCap
	if queueCap == 0 {
		queueCap = math.MaxInt / 2
	}
	reg := l.cfg.Reg
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &runState{
		l:        l,
		cfg:      l.cfg,
		arrivals: arrivals,
		queueCap: queueCap,
		adm:      server.NewAdmissionQueue(queueCap),
		q:        newBatchQueue(),
		drives:   make([]driveState, l.cfg.Drives),
		loadedBy: make(map[int64]int, l.cfg.Drives),
		reg:      reg,
		done:     make([]Completion, 0, len(arrivals)),
		cMounts:  make(map[int64]*obs.Counter),
		hLatency: make(map[int64]*obs.Histogram),
	}
	s.hasDeadlines = hasDeadlines
	s.now, s.boundary = 0, true
	s.events.ev = make([]driveEvent, 0, l.cfg.Drives)
	for i := range s.drives {
		d := &s.drives[i]
		d.id = i
		d.idle = true
		d.dl = obs.L("drive", strconv.Itoa(i))
		d.traceFn = s.driveTraceFn(d)
	}
	if l.cfg.Lifecycle.Enabled() {
		s.lc = fault.NewLifecycle(l.cfg.Lifecycle)
		s.breaker = server.NewBreaker(l.cfg.Drives)
		s.dead = make(map[int64]bool)
		s.fetches = make(map[int64]int)
		for i := range s.drives {
			s.drives[i].outCounted = -1
		}
	}
	if l.cfg.SpanTrace != nil {
		s.trace = l.cfg.SpanTrace
	} else if l.cfg.Spans != nil {
		s.trace = l.cfg.Spans.StartTrace()
	}
	if s.trace != nil {
		s.root = s.trace.Start("run", l.cfg.SpanParent, 0).Lane(l.cfg.Lane).
			Attr("scheduler", l.sched.Name()).Attr("policy", l.cfg.Policy.String()).
			AttrInt("drives", l.cfg.Drives)
	}
	return s, nil
}

// laneFor is the drive's span-export lane: drives render on rows above
// the run's own lane, offset by Config.Lane so fleet shards occupy
// disjoint row blocks.
func (s *runState) laneFor(d *driveState) int { return s.cfg.Lane + 1 + d.id }

// admit moves every arrival with Arrival <= until through the bounded
// admission queue into the per-cartridge backlog, shedding load once
// the pending backlog reaches QueueCap. With lifecycle faults armed
// the brownout breaker sits in front: it learns the live-drive count,
// sheds best-effort work while any drive is down (everything while
// all are down), and shrinks a bounded backlog to the live fraction
// of its configured capacity. Arrivals whose primary cartridge has
// been lost are redirected to a surviving replica at admission — or
// failed outright when none remains.
func (s *runState) admit(until float64) {
	depthCap := s.queueCap
	if s.breaker != nil {
		live := 0
		for i := range s.drives {
			if !s.driveDown(&s.drives[i], until) {
				live++
			}
		}
		s.breaker.SetLive(live)
		if s.cfg.QueueCap > 0 {
			depthCap = s.breaker.EffectiveCap(depthCap)
		}
	}
	for s.next < len(s.arrivals) && s.arrivals[s.next].req.Arrival <= until {
		i := s.next
		p := s.arrivals[i]
		id := s.base + i
		s.next++
		if s.breaker != nil && !s.breaker.Admits(p.req.BestEffort) {
			s.shedRequests(1)
			s.emitTerminal(p, obs.OutcomeShed, obs.EventNoDrive, p.req.Arrival)
			continue
		}
		if s.dead != nil && s.dead[p.obj.Tape] {
			if !s.redirect(&p) {
				s.failRequests(1)
				s.emitTerminal(p, obs.OutcomeFailed, obs.EventNoDrive, p.req.Arrival)
				continue
			}
			s.arrivals[i] = p // the drain below re-reads by ID
		}
		if s.q.len()+s.adm.Len() >= depthCap ||
			!s.adm.Offer(server.Request{ID: id, Segment: p.obj.Start, ArrivalSec: p.req.Arrival}) {
			s.m.Rejected++
			if s.cRejected == nil {
				s.cRejected = s.counter("rejected_total")
			}
			s.cRejected.Inc()
			s.emitTerminal(p, obs.OutcomeRejected, obs.EventNoDrive, p.req.Arrival)
		}
	}
	// Drain the admission queue into the robot's per-cartridge view.
	s.admBuf = s.adm.PopNAppend(s.admBuf[:0], 0)
	for _, r := range s.admBuf {
		s.q.push(s.arrivals[r.ID-s.base])
	}
	// Every arrival before next is now queued or turned away. Once all
	// are, drop them: an incremental run, offered one request per
	// advance, then keeps a record of only a few arrivals instead of
	// one that grows for the whole run.
	if s.next == len(s.arrivals) {
		s.base += s.next
		s.arrivals, s.next = s.arrivals[:0], 0
	}
	if d := s.q.len(); d > s.m.MaxQueueDepth {
		s.m.MaxQueueDepth = d
	}
}

// dispatch hands work to every idle drive, in drive-id order. Under
// ReplanOnArrival a drive with work pending for its own mounted
// cartridge keeps it (one request per dispatch, so every decision
// sees the freshest queue); under FixedWindow nothing dispatches off
// a window boundary. A cartridge is physically in one place, so a
// drive never picks a cartridge loaded elsewhere: the standing
// loadedBy index carries the exclusion, with no per-dispatch set
// building.
func (s *runState) dispatch(now float64, boundary bool) error {
	if s.cfg.Policy == server.FixedWindow && !boundary {
		return nil
	}
	if s.cfg.Policy == server.ReplanOnArrival {
		for i := range s.drives {
			d := &s.drives[i]
			if d.idle && d.loaded && s.q.perTape[d.serial] != nil && !s.driveDown(d, now) {
				if _, err := s.serve(d, d.serial, now); err != nil {
					return err
				}
			}
		}
	}
	for i := range s.drives {
		d := &s.drives[i]
		// A pick that does not dispatch — the whole batch shed past
		// its deadline, or the cartridge lost by the robot — leaves
		// the drive idle with a changed queue, so re-pick: each
		// failed pick removes its cartridge's group (shed, or
		// drained for replica redirect), so the loop terminates.
		for d.idle && !s.driveDown(d, now) {
			serial, ok := s.q.pickFor(s.loadedBy, d.id)
			if !ok {
				break
			}
			dispatched, err := s.serve(d, serial, now)
			if err != nil {
				return err
			}
			if dispatched {
				break
			}
		}
	}
	return nil
}

// advanceOutage draws the drive's outage windows forward until the
// current one ends after now. Windows come lazily from the drive's
// private MTTF/MTTR stream — drawn only as the virtual clock passes
// them and always in time order, so the draw sequence is a pure
// function of the config however the event loop interleaves drives.
func (s *runState) advanceOutage(d *driveState, now float64) {
	for d.repairedAt <= now {
		gap, repair, ok := s.lc.NextOutage(d.id)
		if !ok {
			d.downAt, d.repairedAt = math.Inf(1), math.Inf(1)
			return
		}
		d.downAt = d.repairedAt + gap
		d.repairedAt = d.downAt + repair
	}
}

// driveDown reports whether the drive is inside an outage window at
// now. Always false without lifecycle faults.
func (s *runState) driveDown(d *driveState, now float64) bool {
	if s.lc == nil {
		return false
	}
	s.advanceOutage(d, now)
	if d.downAt <= now {
		s.noteOutage(d)
		return true
	}
	return false
}

// noteOutage counts the drive's current outage window once, however
// often it is observed, and emits its "down" span on the drive's lane.
func (s *runState) noteOutage(d *driveState) {
	if d.outCounted == d.downAt {
		return
	}
	d.outCounted = d.downAt
	s.m.DriveFailures++
	if s.cDriveDn == nil {
		s.cDriveDn = s.counter("drive_failures_total")
	}
	s.cDriveDn.Inc()
	if s.trace != nil {
		s.trace.Start("down", s.root, d.downAt).Lane(s.laneFor(d)).End(d.repairedAt)
	}
}

// redirect advances p to its next replica on a surviving cartridge,
// reporting false when none remains.
func (s *runState) redirect(p *pending) bool {
	reps := s.cfg.Placement.Get(p.req.ObjectID)
	for {
		p.replica++
		if p.replica > len(reps) {
			return false
		}
		if o := reps[p.replica-1]; !s.dead[o.Tape] {
			p.obj = o
			return true
		}
	}
}

// emitTerminal records the wide event for a request ending in a
// non-served terminal state at virtual time at: the whole wait since
// arrival books as queue time (minus any rescue time already accrued,
// which keeps its own column), so the attribution vector telescopes
// to the sojourn for every outcome. driveID is the drive involved in
// the final decision, or obs.EventNoDrive when none was.
func (s *runState) emitTerminal(p pending, outcome string, driveID int, at float64) {
	if s.cfg.Events == nil {
		return
	}
	s.cfg.Events.Add(obs.Event{
		Shard:      s.cfg.Shard,
		Object:     p.req.ObjectID,
		Tape:       p.obj.Tape,
		Drive:      driveID,
		Class:      p.req.Class(),
		Outcome:    outcome,
		Route:      p.route,
		Replica:    p.replica,
		ArrivalSec: p.req.Arrival,
		DoneSec:    at,
		QueueSec:   at - p.req.Arrival - p.rescueSec,
		RescueSec:  p.rescueSec,
	})
}

// emitServed records the wide event for one completion, copying the
// attribution vector the completion carries.
func (s *runState) emitServed(p pending, driveID int, done float64, attr Attribution) {
	if s.cfg.Events == nil {
		return
	}
	s.cfg.Events.Add(obs.Event{
		Shard:       s.cfg.Shard,
		Object:      p.req.ObjectID,
		Tape:        p.obj.Tape,
		Drive:       driveID,
		Class:       p.req.Class(),
		Outcome:     obs.OutcomeServed,
		Route:       p.route,
		Replica:     p.replica,
		ArrivalSec:  p.req.Arrival,
		DoneSec:     done,
		QueueSec:    attr.QueueSec,
		RobotSec:    attr.RobotSec,
		MountSec:    attr.MountSec,
		LocateSec:   attr.LocateSec,
		TransferSec: attr.TransferSec,
		RetrySec:    attr.RetrySec,
		RescueSec:   attr.RescueSec,
	})
}

// failRequests counts n requests abandoned permanently.
func (s *runState) failRequests(n int) {
	s.m.Failed += n
	if s.cFailed == nil {
		s.cFailed = s.counter("failed_total")
	}
	s.cFailed.Add(int64(n))
}

// shedRequests counts n requests dropped deliberately: refused by the
// brownout breaker or expired past their deadline.
func (s *runState) shedRequests(n int) {
	s.m.Shed += n
	if s.cShed == nil {
		s.cShed = s.counter("shed_total")
	}
	s.cShed.Add(int64(n))
}

// nextTime returns the next virtual time anything can happen: a drive
// completing, an arrival landing, or (FixedWindow, with work queued
// and a drive to take it) the next window boundary. Every candidate
// is strictly after now, so the loop always progresses.
func (s *runState) nextTime(now float64) (t float64, boundary, ok bool) {
	t = math.Inf(1)
	if s.events.len() > 0 {
		t, ok = s.events.min().at, true
	}
	if s.next < len(s.arrivals) {
		if a := s.arrivals[s.next].req.Arrival; a < t {
			t = a
		}
		ok = true
	}
	if s.lc != nil && s.q.len() > 0 {
		// Work is queued but may be waiting on a repair: every idle
		// drive inside an outage window becomes available at its
		// repairedAt (including the drive holding a captive cartridge,
		// and the all-drives-down case, where no other event would
		// ever wake the loop).
		for i := range s.drives {
			d := &s.drives[i]
			if d.idle && s.driveDown(d, now) {
				if d.repairedAt < t {
					t = d.repairedAt
				}
				ok = true
			}
		}
	}
	if s.cfg.Policy == server.FixedWindow && s.q.len() > 0 && s.anyAvailable(now) {
		b := s.cfg.WindowSec * math.Ceil(now/s.cfg.WindowSec)
		for b <= now {
			b += s.cfg.WindowSec
		}
		if b <= t {
			t, boundary = b, true
		}
		ok = true
	}
	return t, boundary, ok
}

// anyAvailable reports whether any drive is idle and outside an
// outage window at now (plain idleness without lifecycle faults).
func (s *runState) anyAvailable(now float64) bool {
	for i := range s.drives {
		d := &s.drives[i]
		if d.idle && !s.driveDown(d, now) {
			return true
		}
	}
	return false
}

// wake pops every event at or before now: drives going idle, drives
// dying mid-batch (the robot unloads them and their stranded requests
// are scheduled for requeue), and rescued or redirected requests
// re-entering the backlog. Handlers may push further events at the
// same instant (a free robot books an immediate unload); the loop
// drains those too.
func (s *runState) wake(now float64) {
	for {
		ev, ok := s.events.popLE(now)
		if !ok {
			return
		}
		switch ev.kind {
		case evIdle:
			s.drives[ev.drive].idle = true
		case evFail:
			s.handleDriveFail(&s.drives[ev.drive], ev.at)
		case evRequeue:
			s.handleRequeue(&s.requeues[ev.ref])
		}
	}
}

// handleDriveFail books the rescue of a drive that died mid-batch at
// time t: the robot unloads the captive cartridge as soon as the arm
// is free (the cartridge stays unavailable while in the gripper), the
// stranded requests requeue once it is shelved, and the drive itself
// stays unavailable until its outage window ends.
func (s *runState) handleDriveFail(d *driveState, t float64) {
	wait := 0.0
	if s.robotFree > t {
		wait = s.robotFree - t
		s.m.RobotWaitSec += wait
		if s.hRobotW == nil {
			s.hRobotW = s.histogram("robot_wait_seconds")
		}
		s.hRobotW.Observe(wait)
	}
	unloadEnd := t + wait + s.cfg.UnmountSec
	s.robotFree = unloadEnd
	s.m.Unmounts++
	s.m.RobotMoves++
	s.m.RobotBusySec += s.cfg.UnmountSec
	if s.cUnmounts == nil {
		s.cUnmounts = s.counter("unmounts_total")
	}
	s.cUnmounts.Inc()

	s.m.Rescued += len(d.rescue)
	if s.cRescued == nil {
		s.cRescued = s.counter("rescued_total")
	}
	s.cRescued.Add(int64(len(d.rescue)))
	if s.trace != nil {
		s.trace.Start("rescue", s.root, t).Lane(s.laneFor(d)).
			Attr("tape", strconv.FormatInt(d.serial, 10)).
			AttrInt("count", len(d.rescue)).End(unloadEnd)
	}

	// Wear is retired at unload like a normal exchange; the cartridge
	// rides the gripper (robotHeld) until the requeue shelves it.
	d.passes += d.dev.Stats().HeadPasses(s.cfg.Profile)
	s.loadedBy[d.serial] = robotHeld
	serial := d.serial
	d.loaded = false
	d.idle = true

	s.requeues = append(s.requeues, requeueBatch{serial: serial, release: true, ps: d.rescue})
	d.rescue = nil
	s.events.push(driveEvent{at: unloadEnd, drive: d.id, kind: evRequeue, ref: int32(len(s.requeues) - 1)})
	if unloadEnd > s.m.Makespan {
		s.m.Makespan = unloadEnd
	}
}

// handleRequeue returns a rescue or replica-redirect payload to the
// backlog, shelving the carried cartridge first when there is one. A
// target cartridge that died while the batch was in flight redirects
// again (or fails the request when its replicas are exhausted).
func (s *runState) handleRequeue(rq *requeueBatch) {
	if rq.release && s.loadedBy[rq.serial] == robotHeld {
		delete(s.loadedBy, rq.serial)
	}
	for _, p := range rq.ps {
		if s.dead != nil && s.dead[p.obj.Tape] && !s.redirect(&p) {
			s.failRequests(1)
			s.emitTerminal(p, obs.OutcomeFailed, obs.EventNoDrive, s.now)
			continue
		}
		s.q.push(p)
	}
	rq.ps = nil
	if depth := s.q.len(); depth > s.m.MaxQueueDepth {
		s.m.MaxQueueDepth = depth
	}
}

// deriveFaultSeed gives every (cartridge, drive, mount) its own
// injector stream, so fault sequences do not depend on dispatch
// interleaving across drives.
func deriveFaultSeed(base, serial int64, driveID, mount int) int64 {
	return base*1000003 + serial*8191 + int64(driveID)*131 + int64(mount)*17 + 3
}

// exchange swaps the chosen cartridge into the drive through the
// robot arm (one exchange at a time: a busy arm queues the swap) and
// returns the rewind time charged to the outgoing cartridge, the time
// spent queued for the arm, and the exchange handling time itself.
func (s *runState) exchange(d *driveState, serial int64, now float64) (rewind, wait, exDur float64) {
	if d.loaded {
		// The outgoing device's clock keeps running through the
		// rewind; re-anchor its span base so the rewind leaf span
		// lands at the current virtual time.
		d.base = now - d.dev.Clock()
		rewind = d.dev.Rewind()
		d.passes += d.dev.Stats().HeadPasses(s.cfg.Profile)
		exDur += s.cfg.UnmountSec
		s.m.Unmounts++
		s.m.RobotMoves++
		if s.cUnmounts == nil {
			s.cUnmounts = s.counter("unmounts_total")
		}
		s.cUnmounts.Inc()
		delete(s.loadedBy, d.serial)
	}
	exDur += s.cfg.MountSec
	s.m.Mounts++
	s.m.RobotMoves++
	s.mountsCounter(serial).Inc()
	if s.lc != nil {
		// Robot stalls extend the exchange handling time; the draw is
		// a pure hash of the arm-trip ordinal, so it does not depend
		// on which drive asked.
		if stall := s.lc.RobotStall(s.m.RobotMoves); stall > 0 {
			exDur += stall
			s.m.RobotStalls++
			if s.cStalls == nil {
				s.cStalls = s.counter("robot_stalls_total")
			}
			s.cStalls.Inc()
			if s.trace != nil {
				s.trace.Start("robot-stall", d.curBatch, now+rewind).End(now + rewind + stall)
			}
		}
	}

	wait = 0.0
	exStart := now + rewind
	if s.robotFree > exStart {
		wait = s.robotFree - exStart
		s.m.RobotWaitSec += wait
		if s.hRobotW == nil {
			s.hRobotW = s.histogram("robot_wait_seconds")
		}
		s.hRobotW.Observe(wait)
		if s.trace != nil {
			s.trace.Start("robot-wait", d.curBatch, exStart).End(exStart + wait)
		}
	}
	s.robotFree = exStart + wait + exDur
	s.m.RobotBusySec += exDur
	if s.trace != nil {
		s.trace.Start("exchange", d.curBatch, exStart+wait).
			Attr("tape", strconv.FormatInt(serial, 10)).End(exStart + wait + exDur)
	}

	dev := drive.New(s.l.carts[serial].Tape())
	f := s.cfg.Faults
	armed := f.Enabled()
	if s.lc != nil {
		// A cartridge's bad-spot region is a permanent media defect:
		// a pure hash of the serial, so every mount of the cartridge
		// sees the same region.
		if start, n, bad := s.lc.BadSpot(serial, s.l.carts[serial].Tape().Segments()); bad {
			f.BadSpotStart, f.BadSpotLen = start, n
			armed = true
		}
	}
	if armed {
		f.Seed = deriveFaultSeed(s.cfg.Faults.Seed, serial, d.id, d.mounts)
		dev.AttachFaults(fault.New(f))
	}
	dev.AttachTrace(d.traceFn)
	d.dev = dev
	d.serial = serial
	d.loaded = true
	d.mounts++
	s.loadedBy[serial] = d.id
	return rewind, wait, exDur
}

// driveTraceFn builds the drive's trace hook: every operation feeds
// the per-op counters and histograms and a leaf span under the
// drive's executing batch. Tracing never perturbs drive timing. The
// hook is built once per drive and re-attached on every exchange; its
// metric handles are cached in flat arrays, so with spans disabled the
// per operation cost is two handle increments — no key rendering, no map
// lookups, no allocation.
func (s *runState) driveTraceFn(d *driveState) drive.TraceFunc {
	return func(ev obs.TraceEvent) {
		if oi := drive.OpIndex(ev.Op); oi >= 0 {
			c := d.opsC[oi]
			if c == nil {
				c = s.counter("drive_ops_total", obs.L("op", ev.Op), d.dl)
				d.opsC[oi] = c
			}
			c.Inc()
			h := s.hOpSec[oi]
			if h == nil {
				h = s.histogram("drive_op_seconds", obs.L("op", ev.Op))
				s.hOpSec[oi] = h
			}
			h.Observe(ev.ElapsedSec)
		} else {
			s.counter("drive_ops_total", obs.L("op", ev.Op), d.dl).Inc()
			s.histogram("drive_op_seconds", obs.L("op", ev.Op)).Observe(ev.ElapsedSec)
		}
		if ev.Err != "" {
			s.counter("drive_errors_total", obs.L("class", ev.Err), d.dl).Inc()
		}
		if s.trace != nil {
			sp := s.trace.Start(ev.Op, d.curBatch, d.base+ev.ClockSec)
			if ev.Segment >= 0 {
				sp.AttrInt("segment", ev.Segment)
			}
			if ev.Err != "" {
				sp.Attr("err", ev.Err)
			}
			sp.End(d.base + ev.ClockSec + ev.ElapsedSec)
		}
	}
}

// serve cuts a batch for the cartridge off the backlog and executes
// it on the drive: exchange if needed, then one scheduling problem
// per distinct extent length (the paper's model schedules fixed-size
// requests; mixed sizes are served size class by size class, largest
// class first), each executed through the recovering executor. It
// reports whether the drive actually dispatched: a batch entirely
// shed past its deadline, or a cartridge the robot loses on the
// fetch, leaves the drive idle (and the queue changed) for the
// dispatch loop to re-pick.
func (s *runState) serve(d *driveState, serial int64, now float64) (bool, error) {
	limit := s.cfg.BatchLimit
	if s.cfg.Policy == server.ReplanOnArrival {
		limit = 1
	}
	batch := s.q.take(s.taken[:0], serial, limit)
	s.taken = batch
	if len(batch) == 0 {
		return false, fmt.Errorf("tertiary: internal: dispatched empty batch for tape %d", serial)
	}
	// Deadline enforcement happens at batch-cut time: a request that
	// expired while queued is shed, never dispatched.
	if s.hasDeadlines {
		kept := batch[:0]
		for _, p := range batch {
			if p.req.Deadline > 0 && now > p.req.Deadline {
				s.shedRequests(1)
				s.emitTerminal(p, obs.OutcomeShed, obs.EventNoDrive, now)
				continue
			}
			kept = append(kept, p)
		}
		if batch = kept; len(batch) == 0 {
			return false, nil
		}
	}
	// A fetch of an unmounted cartridge can lose it permanently: the
	// arm trip happens (one robot move) but no mount does, and the
	// batch degrades to surviving replicas or fails.
	if s.lc != nil && (!d.loaded || d.serial != serial) {
		ord := s.fetches[serial]
		s.fetches[serial] = ord + 1
		if s.lc.CartridgeLost(serial, ord) {
			s.loseCartridge(d, serial, now, batch)
			return false, nil
		}
	}
	d.idle = false
	if s.trace != nil {
		d.curBatch = s.trace.Start("batch", s.root, now).Lane(s.laneFor(d)).
			Attr("tape", strconv.FormatInt(serial, 10)).AttrInt("size", len(batch))
	}

	var rewind, wait, exDur float64
	if !d.loaded || d.serial != serial {
		rewind, wait, exDur = s.exchange(d, serial, now)
	}
	// cut is the time the drive's next outage begins: completions and
	// failures past it never happen — the batch is truncated there
	// and its unfinished requests rescued. Infinite without lifecycle
	// faults, and strictly after now (dispatch only serves drives
	// outside an outage window).
	cut := math.Inf(1)
	if s.lc != nil {
		s.advanceOutage(d, now)
		cut = d.downAt
	}
	serveStart := now + rewind + wait + exDur
	c0 := d.dev.Clock()
	// Anchor the mounted device's clock to absolute time for this
	// batch's leaf and executor spans.
	d.base = serveStart - c0

	// Group the batch into size classes, biggest class first (count
	// desc, then extent length asc — a deterministic order despite
	// map iteration). Nearly every real batch is a single class —
	// catalogs store fixed-size objects — so that case skips the
	// grouping machinery entirely.
	rl0 := batch[0].obj.segments()
	single := true
	for i := 1; i < len(batch); i++ {
		if batch[i].obj.segments() != rl0 {
			single = false
			break
		}
	}
	if single {
		if err := s.serveClass(d, serial, now, serveStart, c0, wait, rewind+exDur, cut, rl0, batch); err != nil {
			return false, err
		}
	} else {
		byLen := make(map[int][]pending)
		for _, p := range batch {
			byLen[p.obj.segments()] = append(byLen[p.obj.segments()], p)
		}
		lens := make([]int, 0, len(byLen))
		for k := range byLen {
			lens = append(lens, k)
		}
		sort.Slice(lens, func(i, j int) bool {
			if len(byLen[lens[i]]) != len(byLen[lens[j]]) {
				return len(byLen[lens[i]]) > len(byLen[lens[j]])
			}
			return lens[i] < lens[j]
		})
		for _, rl := range lens {
			if err := s.serveClass(d, serial, now, serveStart, c0, wait, rewind+exDur, cut, rl, byLen[rl]); err != nil {
				return false, err
			}
		}
	}

	elapsed := d.dev.Clock() - c0
	end := serveStart + elapsed
	dur := rewind + wait + exDur + elapsed
	if end > cut {
		// The drive died mid-batch: its unfinished requests are
		// already collected on d.rescue; the robot unload is booked
		// when the evFail event fires, so arm contention is accounted
		// in virtual-time order. The drive stays unavailable until
		// its outage window ends.
		s.noteOutage(d)
		end, dur = cut, cut-now
		s.events.push(driveEvent{at: cut, drive: d.id, kind: evFail})
	} else {
		s.events.push(driveEvent{at: end, drive: d.id})
	}
	d.busy += dur
	if end > s.m.Makespan {
		s.m.Makespan = end
	}
	s.m.Batches++
	if s.cBatches == nil {
		s.cBatches = s.counter("batches_total")
	}
	s.cBatches.Inc()
	if s.hBatchSz == nil {
		s.hBatchSz = s.histogram("batch_size")
		s.hBatchSec = s.histogram("batch_seconds")
	}
	s.hBatchSz.Observe(float64(len(batch)))
	s.hBatchSec.Observe(dur)
	if d.curBatch != nil && len(d.rescue) > 0 {
		d.curBatch.AttrInt("rescued", len(d.rescue))
	}
	d.curBatch.End(end)
	d.curBatch = nil
	return true, nil
}

// loseCartridge handles a failed fetch: the cartridge is permanently
// gone. The taken batch plus the tape's remaining backlog redirect to
// surviving replicas once the arm trip returns empty-handed, or fail
// when no replica remains.
func (s *runState) loseCartridge(d *driveState, serial int64, now float64, batch []pending) {
	s.dead[serial] = true
	s.m.LostCartridges++
	if s.cLostCart == nil {
		s.cLostCart = s.counter("lost_cartridges_total")
	}
	s.cLostCart.Inc()
	wait := 0.0
	if s.robotFree > now {
		wait = s.robotFree - now
		s.m.RobotWaitSec += wait
		if s.hRobotW == nil {
			s.hRobotW = s.histogram("robot_wait_seconds")
		}
		s.hRobotW.Observe(wait)
	}
	tripEnd := now + wait + s.cfg.MountSec
	s.robotFree = tripEnd
	s.m.RobotMoves++
	s.m.RobotBusySec += s.cfg.MountSec
	if s.trace != nil {
		s.trace.Start("lost-cartridge", s.root, now).
			Attr("tape", strconv.FormatInt(serial, 10)).End(tripEnd)
	}
	batch = s.q.take(batch, serial, 0)
	redirected := make([]pending, 0, len(batch))
	for _, p := range batch {
		if s.redirect(&p) {
			redirected = append(redirected, p)
		} else {
			s.failRequests(1)
			s.emitTerminal(p, obs.OutcomeFailed, obs.EventNoDrive, tripEnd)
		}
	}
	if len(redirected) > 0 {
		s.requeues = append(s.requeues, requeueBatch{ps: redirected})
		s.events.push(driveEvent{at: tripEnd, drive: d.id, kind: evRequeue, ref: int32(len(s.requeues) - 1)})
	}
	if tripEnd > s.m.Makespan {
		s.m.Makespan = tripEnd
	}
}

// serveClass schedules and executes one size class of the batch.
// Duplicate extents are deduplicated before scheduling — one physical
// read satisfies every pending request for the segment — and every
// pending sharing a served segment completes at that read's time.
// now is the batch's dispatch time; robotSec and mountSec are the
// exchange costs every request in the batch sat through, attributed
// to each. cut is the time the drive's next outage begins: outcomes
// past it never happen — those requests are rescued onto d.rescue
// with the doomed attempt's duration charged to their RescueSec.
func (s *runState) serveClass(d *driveState, serial int64, now, serveStart, c0, robotSec, mountSec, cut float64, rl int, group []pending) error {
	// The start -> pending-requests multimap lives in run-lifetime
	// scratch: slotOf indexes into slots, whose per-slot slices keep
	// their backing arrays across batches. Every entry is deleted as
	// its segment is served or failed below, so the map is empty again
	// by the time the class is done.
	uniq := s.uniq[:0]
	if s.slotOf == nil {
		s.slotOf = make(map[int]int32, len(group))
	}
	nSlots := 0
	for _, p := range group {
		if si, dup := s.slotOf[p.obj.Start]; dup {
			s.slots[si] = append(s.slots[si], p)
			continue
		}
		if nSlots == len(s.slots) {
			s.slots = append(s.slots, nil)
		}
		s.slots[nSlots] = append(s.slots[nSlots][:0], p)
		s.slotOf[p.obj.Start] = int32(nSlots)
		uniq = append(uniq, p.obj.Start)
		nSlots++
	}
	s.uniq = uniq

	s.prob = core.Problem{Start: d.dev.Position(), Requests: uniq, ReadLen: rl, Cost: s.l.carts[serial].Model()}
	plan, err := s.l.sched.Schedule(&s.prob)
	if err != nil {
		return fmt.Errorf("tertiary: scheduling %d requests on tape %d: %w", len(uniq), serial, err)
	}

	s.ex.Drive, s.ex.Scheduler, s.ex.Policy = d.dev, s.l.sched, s.cfg.Retry
	s.ex.Trace, s.ex.Parent, s.ex.TraceBase = s.trace, d.curBatch, d.base
	base := d.dev.Clock()
	er, err := s.ex.Execute(&s.prob, plan)
	if err != nil {
		return fmt.Errorf("tertiary: executing %d requests on tape %d: %w", len(uniq), serial, err)
	}

	offset := base - c0
	for i, seg := range er.Served {
		si, ok := s.slotOf[seg]
		if !ok {
			return fmt.Errorf("tertiary: schedule visits segment %d on tape %d more often than requested", seg, serial)
		}
		det := er.Detail[i]
		if serveStart+offset+er.Completions[i] > cut {
			// The drive dies before this read completes: rescue every
			// pending on the segment. Time since dispatch becomes
			// rescue time, not queueing, when they finally complete.
			for _, p := range s.slots[si] {
				p.rescueSec += cut - now
				d.rescue = append(d.rescue, p)
			}
			delete(s.slotOf, seg)
			continue
		}
		for _, p := range s.slots[si] {
			done := serveStart + offset + er.Completions[i]
			attr := Attribution{
				QueueSec:    (now - p.req.Arrival) + offset + det.BeginSec - p.rescueSec,
				RobotSec:    robotSec,
				MountSec:    mountSec,
				LocateSec:   det.LocateSec,
				TransferSec: det.ReadSec,
				RetrySec:    det.RetrySec,
				RescueSec:   p.rescueSec,
			}
			if len(s.done) == cap(s.done) {
				// An incremental run's record grows from empty one
				// completion at a time. Doubling copies it about once
				// in all; append's 1.25x growth of a large slice would
				// copy it several times over.
				s.done = slices.Grow(s.done, max(len(s.done), 64))
			}
			s.done = append(s.done, Completion{
				Request: p.req, Object: p.obj,
				Done:        done,
				DriveID:     d.id,
				Attribution: attr,
			})
			s.emitServed(p, d.id, done, attr)
			if p.replica > 0 {
				s.m.ReplicaReads++
				if s.cReplica == nil {
					s.cReplica = s.counter("replica_reads_total")
				}
				s.cReplica.Inc()
			}
			if s.trace != nil {
				rs := s.trace.Start("request", s.root, p.req.Arrival).
					Attr("object", p.obj.ID).AttrInt("drive", d.id).
					AttrFloat("queue_sec", attr.QueueSec).
					AttrFloat("robot_sec", attr.RobotSec).
					AttrFloat("mount_sec", attr.MountSec).
					AttrFloat("locate_sec", attr.LocateSec).
					AttrFloat("transfer_sec", attr.TransferSec).
					AttrFloat("retry_sec", attr.RetrySec)
				if p.replica > 0 {
					rs.AttrInt("replica", p.replica)
					s.trace.Start("replica-read", rs, now).AttrInt("replica", p.replica).End(done)
				}
				rs.End(done)
			}
			if s.cServed == nil {
				s.cServed = s.counter("served_total")
			}
			s.cServed.Inc()
			s.latencyHist(serial).Observe(serveStart + offset + er.Completions[i] - p.req.Arrival)
		}
		delete(s.slotOf, seg)
	}
	for i, seg := range er.Failed {
		si, ok := s.slotOf[seg]
		if !ok {
			return fmt.Errorf("tertiary: schedule visits segment %d on tape %d more often than requested", seg, serial)
		}
		failAbs := serveStart + offset + er.FailedAt[i]
		switch {
		case failAbs > cut:
			// The drive dies before the failure is decided: rescued,
			// like an unfinished read.
			for _, p := range s.slots[si] {
				p.rescueSec += cut - now
				d.rescue = append(d.rescue, p)
			}
		case s.cfg.Placement != nil:
			// A permanent failure with replicas configured degrades
			// to a remote-replica read: each pending redirects to its
			// next surviving copy at the moment the failure was
			// decided, re-entering the backlog then.
			var redirected []pending
			for _, p := range s.slots[si] {
				p.rescueSec += failAbs - now
				if s.redirect(&p) {
					redirected = append(redirected, p)
				} else {
					s.failRequests(1)
					s.emitTerminal(p, obs.OutcomeFailed, d.id, failAbs)
				}
			}
			if len(redirected) > 0 {
				s.requeues = append(s.requeues, requeueBatch{ps: redirected})
				s.events.push(driveEvent{at: failAbs, drive: d.id, kind: evRequeue, ref: int32(len(s.requeues) - 1)})
			}
		default:
			s.failRequests(len(s.slots[si]))
			for _, p := range s.slots[si] {
				s.emitTerminal(p, obs.OutcomeFailed, d.id, failAbs)
			}
		}
		delete(s.slotOf, seg)
	}
	if len(s.slotOf) > 0 {
		return fmt.Errorf("tertiary: schedule for tape %d left %d segments unvisited", serial, len(s.slotOf))
	}
	s.m.Retries += er.Retries
	s.m.Replans += er.Replans
	s.m.Recalibrations += er.Recalibrations
	s.m.Fallbacks += er.Fallbacks
	s.m.RecoverySec += er.RecoverySec
	return nil
}

// finish retires the wear of still-loaded cartridges and folds the
// completions into the summary metrics.
func (s *runState) finish() {
	for i := range s.drives {
		d := &s.drives[i]
		if d.loaded {
			d.passes += d.dev.Stats().HeadPasses(s.cfg.Profile)
		}
		s.m.DriveBusySec += d.busy
		s.m.HeadPasses += d.passes
		s.gauge("drive_busy_seconds", d.dl).Set(d.busy)
	}
	var latSum float64
	for _, c := range s.done {
		s.m.Served++
		lat := c.Latency()
		latSum += lat
		if lat > s.m.MaxLatency {
			s.m.MaxLatency = lat
		}
		s.m.BytesRead += int64(c.Object.segments()) * s.cfg.Profile.SegmentBytes
	}
	if s.m.Served > 0 {
		s.m.MeanLatency = latSum / float64(s.m.Served)
	}
	sort.SliceStable(s.done, func(i, j int) bool { return s.done[i].Done < s.done[j].Done })
	s.gauge("makespan_seconds").Set(s.m.Makespan)
	s.gauge("queue_depth_max").Max(float64(s.m.MaxQueueDepth))
	s.gauge("robot_busy_seconds").Set(s.m.RobotBusySec)
	if s.lc != nil {
		// Lifecycle-only attributes, so a zero-rate run's spans are
		// identical to one without the Lifecycle field.
		s.root.AttrInt("shed", s.m.Shed).AttrInt("rescued", s.m.Rescued).
			AttrInt("replica_reads", s.m.ReplicaReads).
			AttrInt("drive_failures", s.m.DriveFailures).
			AttrInt("lost_cartridges", s.m.LostCartridges)
	}
	s.root.AttrInt("served", s.m.Served).AttrInt("failed", s.m.Failed).
		AttrInt("rejected", s.m.Rejected).End(s.m.Makespan)
}
