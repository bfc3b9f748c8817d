// Package server is the online serving layer: the paper's scheduling
// algorithms put behind an arrival stream. Requests arrive on the
// virtual clock (Poisson or trace-driven), pass a bounded admission
// queue, are cut into batches by a configurable batching policy, and
// execute on the emulated drive through the recovering executor —
// re-scheduled incrementally from the current head position, so any
// of LOSS/SLTF/SCAN/WEAVE serves an open-ended stream rather than a
// closed trial.
//
// Everything runs on the virtual clock: the drive charges busy time,
// the server account idles between arrivals and window boundaries,
// and a request's sojourn is completion time minus arrival time. A
// run is a pure function of its configuration — no wall clock, no
// global state — which is what lets the arrival-rate sweeps promise
// byte-identical output at any worker count.
package server

import (
	"fmt"
	"math"

	"serpentine/internal/core"
	"serpentine/internal/drive"
	"serpentine/internal/fault"
	"serpentine/internal/geometry"
	"serpentine/internal/locate"
	"serpentine/internal/obs"
	"serpentine/internal/sim"
	"serpentine/internal/stats"
)

// Config describes one online serving run.
type Config struct {
	// Serial selects the cartridge; 0 selects 1.
	Serial int64
	// Scheduler plans each batch; nil selects LOSS.
	Scheduler core.Scheduler
	// Policy selects the batching policy.
	Policy BatchPolicy
	// WindowSec is the FixedWindow period; 0 selects 600.
	WindowSec float64
	// QueueCap bounds the admission queue; 0 selects 1024.
	QueueCap int
	// MaxBatch caps the requests per cut batch; 0 means unbounded.
	MaxBatch int
	// ReadLen is the per-request transfer length; 0 means 1.
	ReadLen int
	// DeadlineSec enables per-request deadline enforcement: arrivals
	// without an explicit Request.Deadline get ArrivalSec +
	// DeadlineSec, and a request still queued past its deadline is
	// shed at batch-cut time instead of dispatched. 0 (the default)
	// disables enforcement for requests without explicit deadlines —
	// existing configurations behave exactly as before. The
	// recommended budget is sim.DefaultRequestTimeoutSec, the same
	// constant bounding the executor's per-request drive time.
	DeadlineSec float64
	// Retry bounds the executor's recovery.
	Retry sim.RetryPolicy
	// Faults arms the drive with an injector when any rate is
	// non-zero.
	Faults fault.Config
	// Reg receives the run's metrics; nil creates a fresh registry
	// (exposed in the Result either way).
	Reg *obs.Registry
	// Labels are added to every metric series the run emits; the
	// sweeps pass the cell coordinates here.
	Labels []obs.Label
	// Spans, when non-nil, records the run's lifecycle as hierarchical
	// virtual-time spans: the run, each batch, each request from
	// arrival to completion with its queue wait, the executor's
	// serve/retry/replan phases, and every drive primitive as a leaf.
	// Tracing is pure accounting and changes no simulated timing.
	Spans *obs.Tracer
}

// Result summarizes one run.
type Result struct {
	// Alg and Policy identify the cell.
	Alg    string
	Policy BatchPolicy

	// Served, Failed, Rejected and Shed partition the stream:
	// completed retrievals, permanent drive-level failures,
	// admissions turned away at a full queue, and queued requests
	// dropped because their deadline passed before dispatch.
	Served, Failed, Rejected, Shed int

	// Sojourn accumulates completion − arrival per served request;
	// SojournTimes retains the samples for percentiles.
	Sojourn      stats.Accumulator
	SojournTimes []float64
	// Service accumulates completion − dispatch per served request,
	// where dispatch is the start of the batch execution that served
	// it (for ReplanOnArrival: the start of the request's own
	// single-request execution).
	Service      stats.Accumulator
	ServiceTimes []float64

	// Batches counts cut batches; BatchDurations their executed
	// virtual durations, in order.
	Batches        int
	BatchDurations []float64

	// IncrementalReplans counts re-schedules forced by arrivals
	// landing during service (ReplanOnArrival only). The executor's
	// own fault-recovery work is totalled alongside.
	IncrementalReplans int
	Retries            int
	Replans            int
	Recalibrations     int
	Fallbacks          int
	RecoverySec        float64

	// MakespanSec is the virtual time from zero to the last
	// completion; BusySec the drive's share of it; IdleSec the rest.
	MakespanSec float64
	BusySec     float64
	IdleSec     float64
	// FinalHead is the head position after the last batch.
	FinalHead int
	// MaxQueueDepth is the admission queue's high-water mark.
	MaxQueueDepth int

	// Reg is the registry the run's metrics went to.
	Reg *obs.Registry
}

// SojournP returns the p-th percentile sojourn time, or 0 when
// nothing was served (an idle stream reports NaN-free zeros).
func (r *Result) SojournP(p float64) float64 {
	return stats.PercentileOrZero(r.SojournTimes, p)
}

// ServiceP returns the p-th percentile service time, or 0 when
// nothing was served.
func (r *Result) ServiceP(p float64) float64 {
	return stats.PercentileOrZero(r.ServiceTimes, p)
}

// ThroughputPerHour is completed retrievals per hour of virtual time,
// 0 for an empty or degenerate run.
func (r *Result) ThroughputPerHour() float64 {
	if r.Served <= 0 || !(r.MakespanSec > 0) || math.IsInf(r.MakespanSec, 0) {
		return 0
	}
	return float64(r.Served) / r.MakespanSec * 3600
}

// state is one run's event loop.
type state struct {
	cfg     Config
	model   locate.Cost
	drv     *drive.Drive
	exec    *sim.Executor
	sched   core.Scheduler
	queue   *AdmissionQueue
	reg     *obs.Registry
	labels  []obs.Label
	readLen int

	arrivals []Request
	next     int     // next un-admitted arrival
	idle     float64 // accumulated idle time on top of the drive clock

	// Span tracing state: the run's trace, its root span, and the span
	// of the batch currently executing (drive leaf spans nest there).
	trace    *obs.TraceHandle
	root     *obs.SpanHandle
	curBatch *obs.SpanHandle

	// Cached metric handles, resolved lazily so the set of series a
	// run creates is unchanged while the hot path renders no keys.
	cRejected *obs.Counter
	cServed   *obs.Counter
	cFailed   *obs.Counter
	cShed     *obs.Counter
	hSojourn  *obs.Histogram
	hService  *obs.Histogram
	hBatchSec *obs.Histogram
	hBatchSz  *obs.Histogram
	opsC      [drive.NumOps]*obs.Counter
	opsH      [drive.NumOps]*obs.Histogram

	cIncRepl *obs.Counter

	// Per-batch scratch, reused across batches so the steady-state
	// loop allocates nothing: the cut batch, the incremental pending
	// set, the drained-arrivals buffer, the segment list handed to the
	// scheduler, the hoisted Problem, and the slot table recordExec
	// uses to map served segments back to requests.
	segsBuf  []int
	batchBuf []Request
	pendBuf  []Request
	freshBuf []Request
	prob     core.Problem
	bySeg    map[int]int32
	slots    [][]Request
	slotHead []int
	oneSeg   [1]int
	onePlan  [1]int
	oneReq   [1]Request

	res Result
}

// now is the server's virtual clock: drive busy time plus accounted
// idle.
func (s *state) now() float64 { return s.drv.Clock() + s.idle }

// idleUntil advances the virtual clock to t by accounting idle time.
func (s *state) idleUntil(t float64) {
	if d := t - s.now(); d > 0 {
		s.idle += d
	}
}

// admit moves every arrival with ArrivalSec <= until into the queue,
// rejecting at capacity. It returns how many were admitted.
func (s *state) admit(until float64) int {
	n := 0
	for s.next < len(s.arrivals) && s.arrivals[s.next].ArrivalSec <= until {
		r := s.arrivals[s.next]
		s.next++
		if r.Deadline == 0 && s.cfg.DeadlineSec > 0 {
			r.Deadline = r.ArrivalSec + s.cfg.DeadlineSec
		}
		if s.queue.Offer(r) {
			n++
		} else {
			s.res.Rejected++
			if s.cRejected == nil {
				s.cRejected = s.counter("rejected_total")
			}
			s.cRejected.Inc()
		}
	}
	return n
}

func (s *state) counter(name string, extra ...obs.Label) *obs.Counter {
	return s.reg.Counter(name, append(extra, s.labels...)...)
}

func (s *state) histogram(name string, extra ...obs.Label) *obs.Histogram {
	return s.reg.Histogram(name, append(extra, s.labels...)...)
}

func (s *state) gauge(name string, extra ...obs.Label) *obs.Gauge {
	return s.reg.Gauge(name, append(extra, s.labels...)...)
}

// Run serves the arrival stream to completion and returns the run's
// summary. The arrivals must be in non-decreasing time order with
// non-negative times and in-range segments; a malformed stream is an
// error, not a partial run.
func Run(cfg Config, arrivals []Request) (*Result, error) {
	serial := cfg.Serial
	if serial == 0 {
		serial = 1
	}
	sched := cfg.Scheduler
	if sched == nil {
		sched = core.NewLOSS()
	}
	if err := sim.CheckSizes("server", map[string]int{
		"QueueCap": cfg.QueueCap, "ReadLen": cfg.ReadLen, "MaxBatch": cfg.MaxBatch,
	}); err != nil {
		return nil, err
	}
	readLen := cfg.ReadLen
	if readLen == 0 {
		readLen = 1
	}
	queueCap := cfg.QueueCap
	if queueCap == 0 {
		queueCap = 1024
	}
	if cfg.WindowSec == 0 {
		cfg.WindowSec = 600
	}
	if err := sim.CheckFinite("server", map[string]float64{
		"WindowSec": cfg.WindowSec, "DeadlineSec": cfg.DeadlineSec,
	}); err != nil {
		return nil, err
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, fmt.Errorf("server: faults: %w", err)
	}
	if err := cfg.Retry.Validate(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}

	cart, err := locate.Load(geometry.DLT4000(), serial)
	if err != nil {
		return nil, fmt.Errorf("server: tape: %w", err)
	}
	tape, model := cart.Tape(), cart.Model()
	last := model.Segments() - readLen
	prev := 0.0
	for i, r := range arrivals {
		if r.Segment < 0 || r.Segment > last {
			return nil, fmt.Errorf("server: arrival %d (segment %d) out of range [0,%d]", i, r.Segment, last)
		}
		if math.IsNaN(r.ArrivalSec) || math.IsInf(r.ArrivalSec, 0) || r.ArrivalSec < prev {
			return nil, fmt.Errorf("server: arrival %d at %g violates time order (previous %g)", i, r.ArrivalSec, prev)
		}
		prev = r.ArrivalSec
	}

	reg := cfg.Reg
	if reg == nil {
		reg = obs.NewRegistry()
	}
	drv := drive.New(tape)
	if cfg.Faults.Enabled() {
		drv.AttachFaults(fault.New(cfg.Faults))
	}

	s := &state{
		cfg:      cfg,
		model:    model,
		drv:      drv,
		exec:     &sim.Executor{Drive: drv, Scheduler: sched, Policy: cfg.Retry},
		sched:    sched,
		queue:    NewAdmissionQueue(queueCap),
		reg:      reg,
		labels:   cfg.Labels,
		readLen:  readLen,
		arrivals: arrivals,
	}
	s.res.Alg = sched.Name()
	s.res.Policy = cfg.Policy
	s.res.Reg = reg
	if cfg.Spans != nil {
		s.trace = cfg.Spans.StartTrace()
		s.root = s.trace.Start("run", nil, 0).
			Attr("alg", sched.Name()).Attr("policy", cfg.Policy.String())
	}

	// Observability: every drive operation feeds per-op counters and
	// latency histograms, plus a leaf span under the executing batch.
	// The drive's clock excludes accounted idle, so s.idle maps it onto
	// the run's virtual time.
	drv.AttachTrace(func(ev obs.TraceEvent) {
		if oi := drive.OpIndex(ev.Op); oi >= 0 {
			c := s.opsC[oi]
			if c == nil {
				c = s.counter("drive_ops_total", obs.L("op", ev.Op))
				s.opsC[oi] = c
			}
			c.Inc()
			h := s.opsH[oi]
			if h == nil {
				h = s.histogram("drive_op_seconds", obs.L("op", ev.Op))
				s.opsH[oi] = h
			}
			h.Observe(ev.ElapsedSec)
		} else {
			s.counter("drive_ops_total", obs.L("op", ev.Op)).Inc()
			s.histogram("drive_op_seconds", obs.L("op", ev.Op)).Observe(ev.ElapsedSec)
		}
		if ev.Err != "" {
			s.counter("drive_errors_total", obs.L("class", ev.Err)).Inc()
		}
		if s.trace != nil {
			sp := s.trace.Start(ev.Op, s.curBatch, ev.ClockSec+s.idle)
			if ev.Segment >= 0 {
				sp.AttrInt("segment", ev.Segment)
			}
			if ev.Err != "" {
				sp.Attr("err", ev.Err)
			}
			sp.End(ev.ClockSec + ev.ElapsedSec + s.idle)
		}
	})

	if err := s.run(); err != nil {
		return nil, err
	}
	return &s.res, nil
}

// run is the event loop: admit, idle to the next event, cut a batch
// per the policy, serve it, repeat until the stream drains.
func (s *state) run() error {
	for s.next < len(s.arrivals) || s.queue.Len() > 0 {
		s.admit(s.now())
		if s.queue.Len() == 0 {
			// Nothing admitted and nothing queued: idle to the next
			// arrival. (The loop condition guarantees one exists —
			// everything before now() was already admitted.)
			s.idleUntil(s.arrivals[s.next].ArrivalSec)
			s.admit(s.now())
			continue
		}
		if s.cfg.Policy == FixedWindow {
			// Cut at the next multiple of the window (possibly now,
			// when now() is exactly on a boundary). An arrival at
			// exactly the boundary joins this batch.
			boundary := s.cfg.WindowSec * math.Ceil(s.now()/s.cfg.WindowSec)
			s.idleUntil(boundary)
			s.admit(boundary)
		}
		batch := s.queue.PopNAppend(s.batchBuf[:0], s.cfg.MaxBatch)
		s.batchBuf = batch
		if batch = s.shedExpired(batch, s.now()); len(batch) == 0 {
			continue
		}
		var err error
		if s.cfg.Policy == ReplanOnArrival {
			err = s.serveIncremental(batch)
		} else {
			err = s.serveBatch(batch)
		}
		if err != nil {
			return err
		}
	}
	s.res.MakespanSec = s.now()
	s.res.BusySec = s.drv.Clock()
	s.res.IdleSec = s.idle
	s.res.FinalHead = s.drv.Position()
	s.res.MaxQueueDepth = s.queue.MaxDepth()
	if s.res.Shed > 0 {
		s.root.AttrInt("shed", s.res.Shed)
	}
	s.root.AttrInt("served", s.res.Served).AttrInt("failed", s.res.Failed).
		AttrInt("rejected", s.res.Rejected).End(s.res.MakespanSec)
	s.gauge("queue_depth_max").Max(float64(s.queue.MaxDepth()))
	s.gauge("clock_seconds").Set(s.res.MakespanSec)
	s.gauge("busy_seconds").Set(s.res.BusySec)
	return nil
}

// serveBatch plans and executes one batch as a unit (QuiesceThenReplan
// and FixedWindow).
func (s *state) serveBatch(batch []Request) error {
	if len(batch) == 0 {
		return nil
	}
	segs := s.segsBuf[:0]
	for _, r := range batch {
		segs = append(segs, r.Segment)
	}
	s.segsBuf = segs
	s.prob = core.Problem{Start: s.drv.Position(), Requests: segs, ReadLen: s.readLen, Cost: s.model}
	plan, err := s.sched.Schedule(&s.prob)
	if err != nil {
		return fmt.Errorf("server: scheduling batch of %d: %w", len(batch), err)
	}
	dispatch := s.now()
	s.curBatch = s.trace.Start("batch", s.root, dispatch).
		AttrInt("size", len(batch)).Attr("mode", "batch")
	s.exec.Trace = s.trace
	s.exec.Parent = s.curBatch
	s.exec.TraceBase = s.idle
	er, err := s.exec.Execute(&s.prob, plan)
	if err != nil {
		return fmt.Errorf("server: executing batch of %d: %w", len(batch), err)
	}
	s.recordExec(batch, &er, dispatch)
	s.recordCut(len(batch), er.ElapsedSec)
	s.curBatch.End(s.now())
	s.curBatch = nil
	return nil
}

// serveIncremental serves a batch one request at a time off the
// current plan, re-scheduling the remainder from the current head
// whenever arrivals landed during the last service (and after any
// recalibration disturbed the head position).
func (s *state) serveIncremental(batch []Request) error {
	pending := append(s.pendBuf[:0], batch...)
	order, err := s.planOrder(pending)
	if err != nil {
		return err
	}
	cutStart := s.now()
	s.curBatch = s.trace.Start("batch", s.root, cutStart).Attr("mode", "incremental")
	size := len(batch)
	for len(pending) > 0 {
		seg := order[0]
		order = order[1:]
		idx := indexOfSegment(pending, seg)
		if idx < 0 {
			return fmt.Errorf("server: plan serves segment %d not in the pending set", seg)
		}
		req := pending[idx]
		pending = append(pending[:idx], pending[idx+1:]...)

		s.oneSeg[0], s.onePlan[0] = seg, seg
		s.prob = core.Problem{Start: s.drv.Position(), Requests: s.oneSeg[:], ReadLen: s.readLen, Cost: s.model}
		dispatch := s.now()
		s.exec.Trace = s.trace
		s.exec.Parent = s.curBatch
		s.exec.TraceBase = s.idle
		er, err := s.exec.Execute(&s.prob, core.Plan{Order: s.onePlan[:]})
		if err != nil {
			return fmt.Errorf("server: executing request %d: %w", req.ID, err)
		}
		s.oneReq[0] = req
		s.recordExec(s.oneReq[:], &er, dispatch)

		// Admit what arrived while the drive was busy; new work (or a
		// recovery that moved the head) invalidates the remaining
		// order, so re-plan from the current position.
		merged := 0
		if s.admit(s.now()) > 0 {
			fresh := s.queue.PopNAppend(s.freshBuf[:0], 0)
			s.freshBuf = fresh
			fresh = s.shedExpired(fresh, s.now())
			merged = len(fresh)
			size += merged
			pending = append(pending, fresh...)
		}
		if len(pending) == 0 {
			continue
		}
		if merged > 0 || er.Recalibrations > 0 || len(order) == 0 {
			if merged > 0 {
				s.res.IncrementalReplans++
				if s.cIncRepl == nil {
					s.cIncRepl = s.counter("incremental_replans_total")
				}
				s.cIncRepl.Inc()
			}
			if order, err = s.planOrder(pending); err != nil {
				return err
			}
		}
	}
	s.pendBuf = pending
	s.recordCut(size, s.now()-cutStart)
	s.curBatch.AttrInt("size", size).End(s.now())
	s.curBatch = nil
	return nil
}

// recordCut accounts one cut batch: how many requests it grew to and
// how long its service span took.
func (s *state) recordCut(size int, elapsed float64) {
	s.res.Batches++
	s.res.BatchDurations = append(s.res.BatchDurations, elapsed)
	if s.hBatchSec == nil {
		s.hBatchSec = s.histogram("batch_seconds")
		s.hBatchSz = s.histogram("batch_size")
	}
	s.hBatchSec.Observe(elapsed)
	s.hBatchSz.Observe(float64(size))
}

// shedExpired drops the requests whose deadline passed before now,
// compacting in place and counting each drop. With no deadlines in
// play (the default) nothing matches, no series is created, and the
// run is byte-identical to one without deadline support.
func (s *state) shedExpired(batch []Request, now float64) []Request {
	kept := batch[:0]
	for _, r := range batch {
		if r.Expired(now) {
			s.res.Shed++
			if s.cShed == nil {
				s.cShed = s.counter("shed_total")
			}
			s.cShed.Inc()
			continue
		}
		kept = append(kept, r)
	}
	return kept
}

// planOrder schedules the pending requests from the current head.
func (s *state) planOrder(pending []Request) ([]int, error) {
	segs := s.segsBuf[:0]
	for _, r := range pending {
		segs = append(segs, r.Segment)
	}
	s.segsBuf = segs
	s.prob = core.Problem{Start: s.drv.Position(), Requests: segs, ReadLen: s.readLen, Cost: s.model}
	plan, err := s.sched.Schedule(&s.prob)
	if err != nil {
		return nil, fmt.Errorf("server: scheduling %d pending: %w", len(pending), err)
	}
	if err := core.CheckPermutation(segs, plan.Order); err != nil {
		return nil, fmt.Errorf("server: %s plan: %w", s.sched.Name(), err)
	}
	return plan.Order, nil
}

// indexOfSegment returns the first pending request for seg, or -1.
func indexOfSegment(pending []Request, seg int) int {
	for i, r := range pending {
		if r.Segment == seg {
			return i
		}
	}
	return -1
}

// recordExec folds one execution's outcomes into the result and the
// metrics: per-request sojourn and service times for the served, the
// failure split, and the executor's recovery counters.
func (s *state) recordExec(batch []Request, er *sim.ExecResult, dispatch float64) {
	// Map each served/failed segment occurrence back to its request,
	// FIFO per segment (duplicates are legal in a stream). The map
	// only holds slot indices into reusable per-segment slices, so
	// the steady-state loop touches no fresh allocations.
	if s.bySeg == nil {
		s.bySeg = make(map[int]int32, len(batch))
	}
	nSlots := 0
	for _, r := range batch {
		if si, dup := s.bySeg[r.Segment]; dup {
			s.slots[si] = append(s.slots[si], r)
			continue
		}
		if nSlots == len(s.slots) {
			s.slots = append(s.slots, nil)
			s.slotHead = append(s.slotHead, 0)
		}
		s.slots[nSlots] = append(s.slots[nSlots][:0], r)
		s.slotHead[nSlots] = 0
		s.bySeg[r.Segment] = int32(nSlots)
		nSlots++
	}
	for i, seg := range er.Served {
		si, ok := s.bySeg[seg]
		if !ok || s.slotHead[si] >= len(s.slots[si]) {
			continue
		}
		req := s.slots[si][s.slotHead[si]]
		s.slotHead[si]++
		completion := dispatch + er.Completions[i]
		sojourn := completion - req.ArrivalSec
		service := er.Completions[i]
		if s.trace != nil {
			rs := s.trace.Start("request", s.root, req.ArrivalSec).
				AttrInt("id", req.ID).AttrInt("segment", seg).
				AttrFloat("queue_sec", dispatch-req.ArrivalSec)
			s.trace.Start("queue", rs, req.ArrivalSec).End(dispatch)
			rs.End(completion)
		}
		s.res.Served++
		s.res.Sojourn.Add(sojourn)
		s.res.SojournTimes = append(s.res.SojournTimes, sojourn)
		s.res.Service.Add(service)
		s.res.ServiceTimes = append(s.res.ServiceTimes, service)
		if s.cServed == nil {
			s.cServed = s.counter("served_total")
			s.hSojourn = s.histogram("sojourn_seconds")
			s.hService = s.histogram("service_seconds")
		}
		s.cServed.Inc()
		s.hSojourn.Observe(sojourn)
		s.hService.Observe(service)
	}
	for range er.Failed {
		s.res.Failed++
		if s.cFailed == nil {
			s.cFailed = s.counter("failed_total")
		}
		s.cFailed.Inc()
	}
	s.res.Retries += er.Retries
	s.res.Replans += er.Replans
	s.res.Recalibrations += er.Recalibrations
	s.res.Fallbacks += er.Fallbacks
	s.res.RecoverySec += er.RecoverySec
	clear(s.bySeg)
}
