package tertiary

import (
	"fmt"
	"io"
	"math"
	"strconv"

	"serpentine/internal/core"
	"serpentine/internal/fault"
	"serpentine/internal/geometry"
	"serpentine/internal/locate"
	"serpentine/internal/obs"
	"serpentine/internal/rand48"
	"serpentine/internal/server"
	"serpentine/internal/sim"
	"serpentine/internal/workload"
)

// SweepConfig describes the library experiment: the same synthetic
// store (tapes × objects, Zipf object popularity) served at every
// (arrival rate, drive count, batch limit) cell, exposing the central
// trade-off of online tertiary storage — larger batches cut the
// per-retrieval positioning cost (the paper's whole point) but make
// early requests wait for late ones, and more drives buy concurrency
// at the price of robot-arm contention.
type SweepConfig struct {
	// Profile is the drive/cartridge format; zero value selects the
	// DLT4000.
	Profile geometry.Params
	// TapeCount and Objects shape the store; 0 select 4 cartridges
	// of 512 objects. ObjectSegments is the extent length per object;
	// 0 selects 32 (1 MB on a DLT4000).
	TapeCount      int
	Objects        int
	ObjectSegments int
	// RatesPerHour are the Poisson arrival rates to sweep; nil
	// selects {60, 120, 240}.
	RatesPerHour []float64
	// DriveCounts are the transport pool sizes; nil selects {1, 2}.
	DriveCounts []int
	// BatchLimits caps requests served per mount; nil selects
	// {1, 16, 0} (0 = unlimited).
	BatchLimits []int
	// Requests is the stream length per cell; 0 selects 400.
	Requests int
	// MountSec, UnmountSec, Scheduler, Policy, WindowSec, QueueCap
	// and Retry pass through to every cell's Config.
	MountSec   float64
	UnmountSec float64
	Scheduler  core.Scheduler
	Policy     server.BatchPolicy
	WindowSec  float64
	QueueCap   int
	Retry      sim.RetryPolicy
	// Faults arms every cell when any rate is non-zero. Its Seed is
	// ignored: each cell derives an injector base seed from Seed and
	// the cell coordinates.
	Faults fault.Config
	// Lifecycle arms component lifecycle faults in every cell when
	// any rate is non-zero. Its Seed is likewise ignored: each cell
	// derives one from Seed and the cell coordinates, so lifecycle
	// fault sequences do not depend on sweep order or worker count.
	Lifecycle fault.LifecycleConfig
	// Seed seeds each cell's arrival stream and object picks,
	// derived per cell so results do not depend on sweep order or
	// worker count.
	Seed int64
	// Workers bounds concurrent cells; 0 selects GOMAXPROCS.
	Workers int
	// Reg, when non-nil, receives every cell's metrics, merged in
	// spec order after the parallel phase so the dump is identical
	// at any worker count.
	Reg *obs.Registry
	// SpanCap, when positive, gives every cell its own span tracer of
	// that capacity and returns the recorded spans and completions on
	// the Cell. Per-cell capture keeps the spans — like the metrics —
	// byte-identical at any worker count.
	SpanCap int
}

// Cell is one (rate, drives, batch limit) outcome.
type Cell struct {
	RatePerHour float64
	Drives      int
	BatchLimit  int
	Metrics     Metrics
	// Spans holds the cell's recorded spans when SweepConfig.SpanCap
	// was set; Completions the cell's served requests with latency
	// attribution, in completion order.
	Spans       []obs.Span
	Completions []Completion
}

// Sweep runs every cell of the library experiment. Cells run
// concurrently up to cfg.Workers, sharing the read-only store (tapes,
// locate models, catalog), but each cell is fully deterministic — its
// arrival stream, object picks and injector seeds depend only on the
// config and the cell coordinates — so the sweep's output is
// identical at any worker count.
func Sweep(cfg SweepConfig) ([]Cell, error) {
	if err := sim.CheckSizes("tertiary: sweep", map[string]int{
		"TapeCount": cfg.TapeCount, "Objects": cfg.Objects, "ObjectSegments": cfg.ObjectSegments,
		"Requests": cfg.Requests, "QueueCap": cfg.QueueCap, "Workers": cfg.Workers,
	}); err != nil {
		return nil, err
	}
	tapeCount := cfg.TapeCount
	if tapeCount == 0 {
		tapeCount = 4
	}
	objects := cfg.Objects
	if objects == 0 {
		objects = 512
	}
	objSegs := cfg.ObjectSegments
	if objSegs == 0 {
		objSegs = 32
	}
	rates := cfg.RatesPerHour
	if rates == nil {
		rates = []float64{60, 120, 240}
	}
	driveCounts := cfg.DriveCounts
	if driveCounts == nil {
		driveCounts = []int{1, 2}
	}
	limits := cfg.BatchLimits
	if limits == nil {
		limits = []int{1, 16, 0}
	}
	n := cfg.Requests
	if n == 0 {
		n = 400
	}

	// Build the store once: the base library holds the cartridges and
	// catalog every cell shares read-only.
	base, err := SweepStore(cfg.Profile, tapeCount, objects, objSegs, cfg.MountSec, cfg.UnmountSec)
	if err != nil {
		return nil, err
	}

	// Each spec carries the registry its cell records into, merged
	// below in spec order.
	type cellSpec struct {
		rateIdx, driveIdx, limitIdx int
		reg                         *obs.Registry
	}
	var specs []cellSpec
	for ri := range rates {
		for di := range driveCounts {
			for bi := range limits {
				specs = append(specs, cellSpec{ri, di, bi, obs.NewRegistry()})
			}
		}
	}
	cells, err := sim.Cells(specs, cfg.Workers, func(sp cellSpec) (Cell, error) {
		rate := rates[sp.rateIdx]
		drives := driveCounts[sp.driveIdx]
		limit := limits[sp.limitIdx]
		seed := sim.CellSeed(cfg.Seed, sp.rateIdx, sp.driveIdx, sp.limitIdx)
		stream, err := SweepStream(rate, n, seed, tapeCount, objects, 0)
		if err != nil {
			return Cell{}, fmt.Errorf("tertiary: sweep arrivals %g/h: %w", rate, err)
		}
		faults := cfg.Faults
		if faults.Enabled() {
			faults.Seed = seed + 3
		}
		lifecycle := cfg.Lifecycle
		if lifecycle.Enabled() {
			lifecycle.Seed = seed + 5
		}
		var spans *obs.Tracer
		if cfg.SpanCap > 0 {
			spans = obs.NewTracer(cfg.SpanCap)
		}
		lib := base.Clone(Config{
			Drives:     drives,
			MountSec:   cfg.MountSec,
			UnmountSec: cfg.UnmountSec,
			BatchLimit: limit,
			Scheduler:  cfg.Scheduler,
			Policy:     cfg.Policy,
			WindowSec:  cfg.WindowSec,
			QueueCap:   cfg.QueueCap,
			Retry:      cfg.Retry,
			Faults:     faults,
			Lifecycle:  lifecycle,
			Reg:        sp.reg,
			Spans:      spans,
			Labels: []obs.Label{
				obs.L("rate", fmt.Sprintf("%g", rate)),
				obs.L("drives", strconv.Itoa(drives)),
				obs.L("batch", strconv.Itoa(limit)),
			},
		})
		comps, m, err := lib.Run(stream)
		if err != nil {
			return Cell{}, fmt.Errorf("tertiary: sweep cell %g/h %dd limit %d: %w", rate, drives, limit, err)
		}
		cell := Cell{RatePerHour: rate, Drives: drives, BatchLimit: limit, Metrics: m}
		if spans != nil {
			cell.Spans = spans.Spans()
			cell.Completions = comps
		}
		return cell, nil
	})
	if err != nil {
		return nil, err
	}
	if cfg.Reg != nil {
		// Merge in spec order so the aggregated dump is independent
		// of which worker ran which cell.
		for _, sp := range specs {
			cfg.Reg.Merge(sp.reg)
		}
	}
	return cells, nil
}

// Clone returns a library sharing this library's read-only store —
// interned cartridges, catalog — under a different configuration.
// The sweeps use it to give every cell its own registry, tracer and
// knobs over one catalog; the fleet uses it to give
// every cell's shards their own labels and span lanes. A zero Profile
// and nil Tapes select the store's own; others must describe the
// shared store: they are not revalidated. The rest of the
// configuration is checked when a run starts, so Run and StartRun
// reject what New would.
func (l *Library) Clone(cfg Config) *Library {
	if cfg.Profile.Tracks == 0 {
		cfg.Profile = l.cfg.Profile
	}
	if cfg.Tapes == nil {
		cfg.Tapes = l.cfg.Tapes
	}
	sched := cfg.Scheduler
	if sched == nil {
		sched = core.NewAuto()
	}
	return &Library{
		cfg:     cfg.withDefaults(),
		catalog: l.catalog,
		carts:   l.carts,
		sched:   sched,
		layout:  l.layout,
	}
}

// SweepLayout lays out the synthetic store every sweep and the fleet
// serve: tapeCount cartridges with serials 3000+t, each the primary
// home of `objects` objects of objSegs segments, every object stored
// as `replicas` copies. Copy k of object (t, o), named t<t>/o<o>, sits
// on cartridge (t+k) mod tapeCount at segment o*stride + k*objSegs,
// where stride is the holding cartridge's segment count divided by
// objects. Cartridges differ in length — each is serial-seeded, as the
// paper's Figure 9 shows real ones are — so the stride is the holding
// tape's own: every copy lies inside its tape, the extents on one
// cartridge are pairwise disjoint, and an object's copies sit on
// distinct cartridges. The result is indexed by t*objects+o, then by
// copy. A zero profile selects the DLT4000.
func SweepLayout(profile geometry.Params, tapeCount, objects, objSegs, replicas int) ([][]Object, error) {
	if profile.Tracks == 0 {
		profile = geometry.DLT4000()
	}
	if tapeCount < 1 || objects < 1 || objSegs < 1 {
		return nil, fmt.Errorf("tertiary: sweep store of %d tapes × %d objects × %d segments", tapeCount, objects, objSegs)
	}
	if replicas < 1 || replicas > tapeCount {
		return nil, fmt.Errorf("tertiary: replication factor %d outside 1..%d cartridges", replicas, tapeCount)
	}
	serials := make([]int64, tapeCount)
	strides := make([]int, tapeCount)
	for t := range serials {
		serials[t] = int64(3000 + t)
		cart, err := locate.Load(profile, serials[t])
		if err != nil {
			return nil, fmt.Errorf("tertiary: sweep tape %d: %w", serials[t], err)
		}
		strides[t] = cart.Tape().Segments() / objects
		if strides[t]/replicas < objSegs {
			return nil, fmt.Errorf("tertiary: sweep: %d objects × %d copies of %d segments overflow tape %d",
				objects, replicas, objSegs, serials[t])
		}
	}
	flat := make([]Object, tapeCount*objects*replicas)
	layout := make([][]Object, tapeCount*objects)
	for i := range layout {
		t, o := i/objects, i%objects
		copies := flat[i*replicas : (i+1)*replicas : (i+1)*replicas]
		id := sweepObjectID(t, o)
		for k := range copies {
			tk := (t + k) % tapeCount
			copies[k] = Object{ID: id, Tape: serials[tk], Start: o*strides[tk] + k*objSegs, Segments: objSegs}
		}
		layout[i] = copies
	}
	return layout, nil
}

// SweepStore builds the sweeps' shared single-copy store (SweepLayout
// with one replica). The returned base library holds the cartridges
// and catalog; sweep cells Clone it with their own knobs,
// registries and tracers. A zero profile selects the DLT4000;
// mountSec/unmountSec pass through to the base Config (cells normally
// override them in their Clone anyway). Exported so the staging-tier
// sweep (hsm) can serve the exact store a library sweep cell serves.
func SweepStore(profile geometry.Params, tapeCount, objects, objSegs int, mountSec, unmountSec float64) (*Library, error) {
	layout, err := SweepLayout(profile, tapeCount, objects, objSegs, 1)
	if err != nil {
		return nil, err
	}
	return layoutLibrary(profile, layout, mountSec, unmountSec)
}

// layoutLibrary builds a base library cataloguing the primary copy
// (copy 0) of every object in a SweepLayout, over the cartridges in
// layout order.
func layoutLibrary(profile geometry.Params, layout [][]Object, mountSec, unmountSec float64) (*Library, error) {
	catalog := NewCatalog()
	var serials []int64
	for _, copies := range layout {
		if n := len(serials); n == 0 || serials[n-1] != copies[0].Tape {
			serials = append(serials, copies[0].Tape)
		}
		if err := catalog.Put(copies[0]); err != nil {
			return nil, err
		}
	}
	base, err := New(Config{Profile: profile, Tapes: serials, MountSec: mountSec, UnmountSec: unmountSec}, catalog)
	if err != nil {
		return nil, fmt.Errorf("tertiary: sweep store: %w", err)
	}
	return base, nil
}

// SweepStream builds one sweep cell's request stream over the
// SweepLayout naming: Poisson arrivals at ratePerHour, Zipf(0.8)
// object popularity, and a mount-locality knob — with probability
// locality a request re-targets the previous request's cartridge
// (keeping its Zipf-drawn object ordinal), modelling runs of requests
// against the working set already mounted. At locality 0 the
// re-target coin is never drawn, so the library, availability,
// staging-tier and fleet sweeps replay the same stream for the same
// seed and store shape — which is what lets a one-shard fleet cell
// reproduce a library sweep cell exactly.
func SweepStream(ratePerHour float64, n int, seed int64, tapeCount, objects int, locality float64) ([]Request, error) {
	if locality < 0 || locality >= 1 || math.IsNaN(locality) {
		return nil, fmt.Errorf("tertiary: locality %g outside [0,1)", locality)
	}
	arrivals, err := workload.PoissonArrivals(ratePerHour/3600, n, seed)
	if err != nil {
		return nil, err
	}
	pick := workload.NewZipf(tapeCount*objects, seed+1, 0.8, 1)
	var coin *rand48.Source
	if locality > 0 {
		coin = rand48.New(seed + 2)
	}
	prevTape := -1
	stream := make([]Request, n)
	for i := range stream {
		flat := pick.Batch(1)[0]
		tape, obj := flat/objects, flat%objects
		if coin != nil && prevTape >= 0 && coin.Drand48() < locality {
			tape = prevTape
		}
		prevTape = tape
		stream[i] = Request{ObjectID: sweepObjectID(tape, obj), Arrival: arrivals[i]}
	}
	return stream, nil
}

func sweepObjectID(tape, obj int) string {
	return "t" + strconv.Itoa(tape) + "/o" + strconv.Itoa(obj)
}

// WriteLibrary prints the sweep: one block per arrival rate, one row
// per (drives, batch limit), with delivered throughput, latency,
// exchange and robot-contention counters, and drive utilization.
func WriteLibrary(w io.Writer, cells []Cell) error {
	var rates []float64
	seen := make(map[float64]bool)
	for _, c := range cells {
		if !seen[c.RatePerHour] {
			seen[c.RatePerHour] = true
			rates = append(rates, c.RatePerHour)
		}
	}
	for _, rate := range rates {
		if _, err := fmt.Fprintf(w, "# arrival rate %g/h\n%6s %9s %8s %12s %12s %7s %8s %11s %9s %7s %6s\n",
			rate, "drives", "batch", "IO/h", "mean lat (s)", "max lat (s)", "mounts", "batches", "robot-wait", "rejected", "failed", "util%"); err != nil {
			return err
		}
		for _, c := range cells {
			if c.RatePerHour != rate {
				continue
			}
			m := c.Metrics
			label := strconv.Itoa(c.BatchLimit)
			if c.BatchLimit == 0 {
				label = "unlim"
			}
			util := 0.0
			if m.Makespan > 0 && c.Drives > 0 {
				util = m.DriveBusySec / (float64(c.Drives) * m.Makespan) * 100
			}
			if _, err := fmt.Fprintf(w, "%6d %9s %8.1f %12.0f %12.0f %7d %8d %11.0f %9d %7d %6.2f\n",
				c.Drives, label, m.IOsPerHour(), m.MeanLatency, m.MaxLatency,
				m.Mounts, m.Batches, m.RobotWaitSec, m.Rejected, m.Failed, util); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
