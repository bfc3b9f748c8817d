// Package tertiary assembles the pieces into the system the paper's
// title promises: an online tertiary storage component that serves
// random object reads from a library of serpentine tapes. It supplies
// the context the scheduling algorithms run in — a volume catalog
// mapping objects to (cartridge, segment extent), a bounded admission
// queue, a batcher that groups pending requests by cartridge, a robot
// arm that exchanges cartridges into a pool of emulated drives one at
// a time, and the paper's recommended scheduling policy (OPT for tiny
// batches, LOSS for medium, whole-tape READ for dense ones) applied
// to each mounted batch through the recovering executor, so fault
// retries, replans and scheduler degradation compose with mounting.
//
// The simulation is event-driven over virtual time: per-drive state
// machines advance over a shared event heap, nothing sleeps, and a
// multi-hour workload evaluates in milliseconds.
package tertiary

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"serpentine/internal/core"
	"serpentine/internal/fault"
	"serpentine/internal/geometry"
	"serpentine/internal/locate"
	"serpentine/internal/obs"
	"serpentine/internal/server"
	"serpentine/internal/sim"
)

// Object is one catalog entry: a named extent on one cartridge.
type Object struct {
	// ID names the object.
	ID string
	// Tape is the cartridge serial holding the object.
	Tape int64
	// Start is the first segment of the extent.
	Start int
	// Segments is the extent length; 0 means 1.
	Segments int
}

func (o Object) segments() int {
	if o.Segments <= 0 {
		return 1
	}
	return o.Segments
}

// Catalog maps object IDs to extents.
type Catalog struct {
	objects map[string]Object
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{objects: make(map[string]Object)}
}

// Put registers or replaces an object.
func (c *Catalog) Put(o Object) error {
	if o.ID == "" {
		return errors.New("tertiary: object with empty ID")
	}
	c.objects[o.ID] = o
	return nil
}

// Get looks an object up.
func (c *Catalog) Get(id string) (Object, bool) {
	o, ok := c.objects[id]
	return o, ok
}

// Len returns the number of cataloged objects.
func (c *Catalog) Len() int { return len(c.objects) }

// All returns every cataloged object sorted by (Tape, Start, ID) —
// physical layout order, the order a staging tier prefetches along.
func (c *Catalog) All() []Object {
	out := make([]Object, 0, len(c.objects))
	for _, o := range c.objects {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Tape != b.Tape {
			return a.Tape < b.Tape
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.ID < b.ID
	})
	return out
}

// Request is one read of a cataloged object.
type Request struct {
	// ObjectID names the object to read.
	ObjectID string
	// Arrival is the request's arrival time in virtual seconds.
	Arrival float64
	// Deadline is the absolute virtual time after which serving the
	// request is pointless; a request still queued past it is shed at
	// batch-cut time rather than dispatched. 0 means no deadline (the
	// default; see Config.DeadlineSec for a stream-wide budget).
	Deadline float64
	// BestEffort marks work the library may shed first under degraded
	// capacity: while any drive is down the brownout admission state
	// sheds best-effort arrivals, and while every drive is down it
	// sheds everything (see Config.Lifecycle).
	BestEffort bool
}

// Class names the request's service class for wide events and SLO
// objectives: "best-effort" or "standard".
func (r Request) Class() string {
	if r.BestEffort {
		return "best-effort"
	}
	return "standard"
}

// Completion reports one served request.
type Completion struct {
	Request
	// Object is the resolved catalog entry.
	Object Object
	// Done is the virtual time the transfer finished.
	Done float64
	// DriveID identifies the drive that served it.
	DriveID int
	// Attribution decomposes the request's sojourn into phases; the
	// components sum back to Latency() (see AttributionError).
	Attribution Attribution
}

// Latency is the request's response time.
func (c Completion) Latency() float64 { return c.Done - c.Arrival }

// Metrics summarizes a library run.
type Metrics struct {
	// Served is the number of completed requests.
	Served int
	// Failed is the number of requests abandoned permanently by the
	// executor (media errors, retry exhaustion past the replan
	// budget); 0 on a fault-free run.
	Failed int
	// Rejected is the number of requests shed at admission because
	// the library's pending backlog was at QueueCap.
	Rejected int
	// Shed is the number of requests dropped deliberately: refused by
	// the brownout admission breaker while drives were down, or
	// expired past their deadline while still queued. Served + Failed
	// + Rejected + Shed partitions the offered stream.
	Shed int
	// Rescued counts requests stranded by a drive dying mid-batch and
	// returned to the backlog (a request rescued twice counts twice);
	// every rescued request is eventually served, shed or failed and
	// is counted there too.
	Rescued int
	// ReplicaReads counts requests served from a non-primary replica
	// after their primary cartridge was lost or its extent hit a
	// permanent media defect.
	ReplicaReads int
	// LostCartridges counts cartridges the robot permanently lost
	// (failed fetches); DriveFailures counts drive outages that
	// affected operation; RobotStalls counts arm stalls that extended
	// an exchange.
	LostCartridges int
	DriveFailures  int
	RobotStalls    int
	// Makespan is the virtual time the last drive went idle.
	Makespan float64
	// MeanLatency and MaxLatency summarize response times.
	MeanLatency float64
	MaxLatency  float64
	// Mounts counts cartridge exchanges into a drive; Unmounts the
	// exchanges out. A cartridge that stays mounted across
	// consecutive batches counts one mount, however many batches it
	// serves.
	Mounts   int
	Unmounts int
	// Batches is the number of schedules executed.
	Batches int
	// RobotMoves counts robot arm trips (one per mount and one per
	// unmount); RobotBusySec is the arm's total exchange time and
	// RobotWaitSec the time drives spent queued for the busy arm.
	RobotMoves   int
	RobotBusySec float64
	RobotWaitSec float64
	// Retries, Replans, Recalibrations and Fallbacks total the
	// executor's recovery work across every batch; RecoverySec is the
	// virtual time it consumed.
	Retries        int
	Replans        int
	Recalibrations int
	Fallbacks      int
	RecoverySec    float64
	// MaxQueueDepth is the pending backlog's high-water mark.
	MaxQueueDepth int
	// BytesRead is the total data transferred.
	BytesRead int64
	// DriveBusySec is the summed busy time across drives (service
	// plus exchange overhead).
	DriveBusySec float64
	// HeadPasses estimates total media wear in full-length passes.
	HeadPasses float64
}

// IOsPerHour is the delivered random-retrieval rate.
func (m Metrics) IOsPerHour() float64 {
	if m.Makespan == 0 {
		return 0
	}
	return float64(m.Served) / m.Makespan * 3600
}

// Config describes a library.
type Config struct {
	// Profile is the drive/cartridge format; zero value selects the
	// DLT4000.
	Profile geometry.Params
	// Tapes are the cartridge serials in the library.
	Tapes []int64
	// Drives is the transport count; 0 selects 1. Drives, BatchLimit
	// and QueueCap must not be negative.
	Drives int
	// MountSec and UnmountSec are the robot exchange times around a
	// cartridge swap (load+thread, and rewind is charged separately
	// by the drive); defaults 30 s and 15 s, typical for mid-90s
	// libraries. The robot arm performs one exchange at a time:
	// concurrent swaps queue for it.
	MountSec   float64
	UnmountSec float64
	// BatchLimit caps how many pending requests are served per
	// mount; 0 means no cap.
	BatchLimit int
	// Scheduler orders each batch; nil selects the paper's Auto
	// policy.
	Scheduler core.Scheduler
	// Policy selects when batches are cut: QuiesceThenReplan (the
	// default) dispatches an idle drive as soon as work is queued,
	// ReplanOnArrival serves one request per dispatch so every
	// service decision sees the freshest queue, and FixedWindow only
	// dispatches at multiples of WindowSec.
	Policy server.BatchPolicy
	// WindowSec is the FixedWindow period; 0 selects 600.
	WindowSec float64
	// QueueCap bounds the library's pending backlog (admitted but
	// not yet dispatched); arrivals beyond it are rejected. 0 means
	// unbounded.
	QueueCap int
	// Retry bounds the executor's fault recovery per batch.
	Retry sim.RetryPolicy
	// Faults arms every mounted drive with an injector when any rate
	// is non-zero; each mount derives its own injector seed from
	// Faults.Seed, the cartridge serial, the drive and the mount
	// ordinal.
	Faults fault.Config
	// Lifecycle arms component lifecycle faults when any rate is
	// non-zero: drives fail and repair on seeded MTTF/MTTR processes
	// (unfinished batch requests are unloaded and rescued onto
	// surviving drives), the robot arm stalls, cartridges are
	// permanently lost by failed fetches, and cartridges carry
	// permanent bad-spot regions. The zero value changes nothing: a
	// run with all rates zero is bit-identical to one without the
	// field.
	Lifecycle fault.LifecycleConfig
	// Placement maps objects to extra replicas on distinct
	// cartridges; with it, a lost cartridge or permanent media defect
	// degrades the read to a surviving replica (an extra mount)
	// instead of failing the request. nil means no replicas.
	Placement *Placement
	// DeadlineSec, when positive, gives every request without an
	// explicit Deadline a budget of Arrival + DeadlineSec; a request
	// still queued past its deadline is shed at batch-cut time. 0
	// disables the default — only explicit per-request deadlines are
	// enforced. The recommended budget is sim.DefaultRequestTimeoutSec,
	// the same constant bounding the executor's per-request drive time.
	DeadlineSec float64
	// Reg receives the run's metrics; nil creates a fresh registry.
	Reg *obs.Registry
	// Labels are added to every metric series the run emits; the
	// sweep passes the cell coordinates here.
	Labels []obs.Label
	// Spans, when non-nil, records the run as hierarchical
	// virtual-time spans: the run, per-drive batches on their own
	// lanes, robot waits and exchanges, the executor's recovery
	// phases, every drive primitive as a leaf, and one span per
	// request from arrival to completion carrying its latency
	// attribution. Tracing is pure accounting and changes no
	// simulated timing bit.
	Spans *obs.Tracer
	// SpanTrace, when non-nil, records the run's spans into this
	// existing trace instead of starting a new one on Spans: the fleet
	// layer passes its own trace handle so every shard's run span nests
	// under the fleet span. SpanParent, when non-nil, becomes the run
	// root span's parent — it must outlive the run. Zero values leave
	// single-library tracing exactly as before.
	SpanTrace  *obs.TraceHandle
	SpanParent *obs.SpanHandle
	// Lane offsets every span lane the run assigns: the run span lands
	// on Lane, drive i on Lane+1+i. The fleet gives each shard a
	// disjoint lane block so parallel shards render as parallel row
	// groups; 0 (the default) keeps the historical lane numbering.
	Lane int
	// Events, when non-nil, receives one wide event per request
	// reaching a terminal state (served, failed, rejected, shed) —
	// the canonical per-request record carrying identity, placement,
	// outcome and the full latency attribution vector. Like spans,
	// emission is pure accounting: it changes no simulated timing
	// bit, and a nil ring costs nothing.
	Events *obs.EventRing
	// Shard stamps every emitted wide event with the library's fleet
	// shard; 0 outside a fleet.
	Shard int
}

// withDefaults resolves the zero-value fields.
func (cfg Config) withDefaults() Config {
	if cfg.Profile.Tracks == 0 {
		cfg.Profile = geometry.DLT4000()
	}
	if cfg.Drives == 0 {
		cfg.Drives = 1
	}
	if cfg.MountSec == 0 {
		cfg.MountSec = 30
	}
	if cfg.UnmountSec == 0 {
		cfg.UnmountSec = 15
	}
	if cfg.WindowSec == 0 {
		cfg.WindowSec = 600
	}
	return cfg
}

// validate checks the run-time knobs of a defaulted config. New and
// every run (Run, StartRun) call it, so a library built by Clone is
// held to the same rules as one built by New.
func (cfg Config) validate() error {
	if err := sim.CheckSizes("tertiary", map[string]int{
		"Drives": cfg.Drives, "BatchLimit": cfg.BatchLimit, "QueueCap": cfg.QueueCap,
	}); err != nil {
		return err
	}
	if err := sim.CheckFinite("tertiary", map[string]float64{
		"MountSec": cfg.MountSec, "UnmountSec": cfg.UnmountSec,
		"WindowSec": cfg.WindowSec, "DeadlineSec": cfg.DeadlineSec,
	}); err != nil {
		return err
	}
	if err := cfg.Faults.Validate(); err != nil {
		return fmt.Errorf("tertiary: faults: %w", err)
	}
	if err := cfg.Retry.Validate(); err != nil {
		return fmt.Errorf("tertiary: %w", err)
	}
	if err := cfg.Lifecycle.Validate(); err != nil {
		return fmt.Errorf("tertiary: lifecycle: %w", err)
	}
	return nil
}

// Library is an online tertiary store: a robot, a drive pool, tapes,
// and a catalog.
type Library struct {
	cfg     Config
	catalog *Catalog
	carts   map[int64]*locate.Cartridge
	sched   core.Scheduler
	layout  *layout // shared by every clone
}

// layout is the catalog grouped per cartridge in layout order, built
// on first use. Clones share it, so a staging tier opened on each of
// many clones indexes the catalog once.
type layout struct {
	once   sync.Once
	byTape map[int64][]Object
}

// New builds the library over the interned cartridges (locate.Load):
// each tape's locate model is characterized from its own key points,
// as the paper's Figure 9 shows it must be, and shared with every
// other store over the same profile and serial.
func New(cfg Config, catalog *Catalog) (*Library, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Tapes) == 0 {
		return nil, errors.New("tertiary: library needs at least one tape")
	}
	if catalog == nil || catalog.Len() == 0 {
		return nil, errors.New("tertiary: library needs a non-empty catalog")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sched := cfg.Scheduler
	if sched == nil {
		sched = core.NewAuto()
	}
	l := &Library{
		cfg:     cfg,
		catalog: catalog,
		carts:   make(map[int64]*locate.Cartridge, len(cfg.Tapes)),
		sched:   sched,
		layout:  new(layout),
	}
	for _, serial := range cfg.Tapes {
		if _, dup := l.carts[serial]; dup {
			return nil, fmt.Errorf("tertiary: duplicate tape serial %d", serial)
		}
		cart, err := locate.Load(cfg.Profile, serial)
		if err != nil {
			return nil, err
		}
		l.carts[serial] = cart
	}
	// Validate the catalog against the tapes.
	for id, o := range catalog.objects {
		cart, ok := l.carts[o.Tape]
		if !ok {
			return nil, fmt.Errorf("tertiary: object %s on unknown tape %d", id, o.Tape)
		}
		if o.Start < 0 || o.Start+o.segments() > cart.Tape().Segments() {
			return nil, fmt.Errorf("tertiary: object %s extent [%d,%d) outside tape %d",
				id, o.Start, o.Start+o.segments(), o.Tape)
		}
	}
	if err := cfg.Placement.validate(l); err != nil {
		return nil, err
	}
	return l, nil
}

// Config returns a copy of the library's resolved configuration (zero
// values replaced by defaults). The staging tier reads it to inherit
// the library's registry, labels and span wiring, and to re-Clone the
// library with the cache span as the run span's parent.
func (l *Library) Config() Config { return l.cfg }

// Objects returns the catalog's entries in layout order (see
// Catalog.All).
func (l *Library) Objects() []Object { return l.catalog.All() }

// Object looks a cataloged object up by ID.
func (l *Library) Object(id string) (Object, bool) { return l.catalog.Get(id) }

// TapeObjects returns the cataloged objects whose primary copy is on
// the cartridge, in layout order (Start, then ID). The slice is shared
// by the library and its clones and must not be modified.
func (l *Library) TapeObjects(serial int64) []Object {
	l.layout.once.Do(func() {
		l.layout.byTape = make(map[int64][]Object)
		for _, o := range l.catalog.All() {
			l.layout.byTape[o.Tape] = append(l.layout.byTape[o.Tape], o)
		}
	})
	return l.layout.byTape[serial]
}

// RefetchSec is the modeled cost of fetching the object from tape
// again: a locate from the load point to the extent plus the extent's
// streaming transfer, priced on the tape's own cost model. It is the
// cost-aware eviction policy's currency: evicting an object that is
// cheap to re-fetch risks little, evicting one far down the tape
// risks a long locate. The mount exchange is deliberately excluded —
// it amortizes over whatever batch the re-fetch would join. Objects
// on unknown tapes cost 0.
func (l *Library) RefetchSec(o Object) float64 {
	cart, ok := l.carts[o.Tape]
	if !ok {
		return 0
	}
	model := cart.Model()
	cost := model.LocateTime(0, o.Start)
	for k := 0; k < o.segments(); k++ {
		cost += model.ReadTime(o.Start + k)
	}
	return cost
}

// Tapes returns the cartridge serials in the library.
func (l *Library) Tapes() []int64 {
	out := make([]int64, 0, len(l.carts))
	for s := range l.carts {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// pending is one unserved request resolved against the catalog.
// replica is the copy currently targeted: 0 is the catalog primary,
// k > 0 the k-th placement replica (obj is kept in sync). rescueSec
// accumulates virtual time lost to aborted serve attempts — batches
// cut short by a drive death, reads redirected to a replica after a
// media failure — attributed separately from queueing when the
// request finally completes.
type pending struct {
	req       Request
	obj       Object
	replica   int
	rescueSec float64
	// route is the routing tier's decision for the request
	// ("affinity", "cross-shard", ...), carried through to the wide
	// event; "" outside a fleet.
	route string
}
