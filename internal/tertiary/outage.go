package tertiary

import (
	"fmt"
	"io"
	"math"
	"sort"

	"serpentine/internal/fault"
	"serpentine/internal/geometry"
	"serpentine/internal/sim"
)

// OutageConfig describes the availability experiment: one synthetic
// store served under component-lifecycle faults across a grid of
// (drive MTTF, drive MTTR, replication factor) cells. Every cell at
// the same (MTTF, MTTR) coordinate shares one workload and one
// component-failure history — the replica axis changes only how much
// redundancy the store brings to the same disaster, which is the
// comparison the sweep exists to make.
type OutageConfig struct {
	// Profile is the drive/cartridge format; zero value selects the
	// DLT4000.
	Profile geometry.Params
	// TapeCount and Objects shape the store; 0 select 4 cartridges of
	// 64 objects. ObjectSegments is the extent length per object; 0
	// selects 32.
	TapeCount      int
	Objects        int
	ObjectSegments int
	// MTTFsSec are the drive mean-time-to-failure values to sweep; 0
	// in the list means drives never fail. Nil selects {0, 14400,
	// 3600}.
	MTTFsSec []float64
	// MTTRsSec are the drive mean repair durations; nil selects
	// {600, 1800}. Ignored by cells whose MTTF is 0.
	MTTRsSec []float64
	// Replicas are the replication factors to sweep; nil selects
	// {1, 2}. Factor R places R-1 extra copies of every object on the
	// R-1 cartridges following its primary's (SweepLayout): copy k
	// sits k extents into the object's slot of the holding tape's own
	// stride, that tape's segment count over Objects. So R must not
	// exceed TapeCount, and every tape's stride must fit the largest
	// factor's copies.
	Replicas []int
	// CartridgeLossRate, BadSpotRate and RobotStallRate arm the
	// non-drive lifecycle classes in every cell.
	CartridgeLossRate float64
	BadSpotRate       float64
	RobotStallRate    float64
	// RatePerHour, Drives, BatchLimit and Requests fix the workload:
	// 0 select 120/h, 2 drives, 16 per batch, 400 requests.
	RatePerHour float64
	Drives      int
	BatchLimit  int
	Requests    int
	// DeadlineSec, when positive, gives every request that latency
	// budget; requests queued past it are shed.
	DeadlineSec float64
	// Seed seeds each cell's arrival stream and failure processes,
	// derived per (MTTF, MTTR) coordinate — not per replica — so the
	// replica axis is a controlled comparison and the output is
	// identical at any worker count.
	Seed int64
	// Workers bounds concurrent cells; 0 selects GOMAXPROCS.
	Workers int
}

// OutageCell is one (MTTF, MTTR, replicas) outcome.
type OutageCell struct {
	MTTFSec  float64
	MTTRSec  float64
	Replicas int
	Metrics  Metrics
	// Offered is the cell's request count; Availability is the
	// fraction of it served.
	Offered      int
	Availability float64
	// P50Sec and P99Sec are sojourn percentiles over the served
	// requests (nearest-rank), 0 when nothing was served.
	P50Sec float64
	P99Sec float64
}

// OutageSweep runs every cell of the availability experiment. Cells
// run concurrently up to cfg.Workers sharing the read-only store, but
// each is fully deterministic, so the sweep's output is identical at
// any worker count.
func OutageSweep(cfg OutageConfig) ([]OutageCell, error) {
	if err := sim.CheckSizes("tertiary: outage", map[string]int{
		"TapeCount": cfg.TapeCount, "Objects": cfg.Objects, "ObjectSegments": cfg.ObjectSegments,
		"Drives": cfg.Drives, "BatchLimit": cfg.BatchLimit, "Requests": cfg.Requests, "Workers": cfg.Workers,
	}); err != nil {
		return nil, err
	}
	tapeCount := cfg.TapeCount
	if tapeCount == 0 {
		tapeCount = 4
	}
	objects := cfg.Objects
	if objects == 0 {
		objects = 64
	}
	objSegs := cfg.ObjectSegments
	if objSegs == 0 {
		objSegs = 32
	}
	mttfs := cfg.MTTFsSec
	if mttfs == nil {
		mttfs = []float64{0, 14400, 3600}
	}
	mttrs := cfg.MTTRsSec
	if mttrs == nil {
		mttrs = []float64{600, 1800}
	}
	replicas := cfg.Replicas
	if replicas == nil {
		replicas = []int{1, 2}
	}
	if cfg.RatePerHour < 0 || math.IsNaN(cfg.RatePerHour) || math.IsInf(cfg.RatePerHour, 0) {
		return nil, fmt.Errorf("tertiary: outage RatePerHour %g", cfg.RatePerHour)
	}
	rate := cfg.RatePerHour
	if rate == 0 {
		rate = 120
	}
	drives := cfg.Drives
	if drives == 0 {
		drives = 2
	}
	limit := cfg.BatchLimit
	if limit == 0 {
		limit = 16
	}
	n := cfg.Requests
	if n == 0 {
		n = 400
	}
	maxR := 1
	for _, r := range replicas {
		if r < 1 {
			return nil, fmt.Errorf("tertiary: outage replication factor %d < 1", r)
		}
		maxR = max(maxR, r)
	}

	// Build the store once, from one layout at the largest factor:
	// the base catalog holds every object's primary copy, and factor
	// R's placement the next R-1 copies (SweepLayout: each on its own
	// cartridge, inside the holding tape's stride slot).
	layout, err := SweepLayout(cfg.Profile, tapeCount, objects, objSegs, maxR)
	if err != nil {
		return nil, fmt.Errorf("tertiary: outage: %w", err)
	}
	base, err := layoutLibrary(cfg.Profile, layout, 0, 0)
	if err != nil {
		return nil, err
	}
	// One placement per distinct replication factor, validated against
	// the shared store.
	placements := make(map[int]*Placement)
	for _, r := range replicas {
		if r == 1 || placements[r] != nil {
			continue
		}
		pl := NewPlacement()
		for _, copies := range layout {
			if err := pl.Put(copies[0].ID, copies[1:r]...); err != nil {
				return nil, err
			}
		}
		if err := pl.validate(base); err != nil {
			return nil, fmt.Errorf("tertiary: outage placement R=%d: %w", r, err)
		}
		placements[r] = pl
	}

	type cellSpec struct {
		mttfIdx, mttrIdx, repIdx int
	}
	var specs []cellSpec
	for mi := range mttfs {
		for ri := range mttrs {
			for pi := range replicas {
				specs = append(specs, cellSpec{mi, ri, pi})
			}
		}
	}
	return sim.Cells(specs, cfg.Workers, func(sp cellSpec) (OutageCell, error) {
		mttf := mttfs[sp.mttfIdx]
		mttr := mttrs[sp.mttrIdx]
		r := replicas[sp.repIdx]
		// The seed deliberately excludes the replica index:
		// all R cells at one (MTTF, MTTR) coordinate replay
		// the same arrivals and the same component-failure
		// history.
		seed := sim.CellSeed(cfg.Seed, sp.mttfIdx, sp.mttrIdx, 0)
		stream, err := SweepStream(rate, n, seed, tapeCount, objects, 0)
		if err != nil {
			return OutageCell{}, fmt.Errorf("tertiary: outage arrivals: %w", err)
		}
		lc := fault.LifecycleConfig{
			DriveMTTFSec:      mttf,
			RobotStallRate:    cfg.RobotStallRate,
			CartridgeLossRate: cfg.CartridgeLossRate,
			BadSpotRate:       cfg.BadSpotRate,
			Seed:              seed + 5,
		}
		if mttf > 0 {
			lc.DriveMTTRSec = mttr
		}
		lib := base.Clone(Config{
			Drives:      drives,
			BatchLimit:  limit,
			Lifecycle:   lc,
			Placement:   placements[r],
			DeadlineSec: cfg.DeadlineSec,
		})
		comps, m, err := lib.Run(stream)
		if err != nil {
			return OutageCell{}, fmt.Errorf("tertiary: outage cell mttf=%g mttr=%g R=%d: %w", mttf, mttr, r, err)
		}
		cell := OutageCell{
			MTTFSec: mttf, MTTRSec: mttr, Replicas: r,
			Metrics: m, Offered: len(stream),
			Availability: float64(m.Served) / float64(len(stream)),
		}
		cell.P50Sec, cell.P99Sec = sojournPercentiles(comps)
		return cell, nil
	})
}

// sojournPercentiles returns the nearest-rank p50 and p99 of the
// completions' latencies.
func sojournPercentiles(comps []Completion) (p50, p99 float64) {
	if len(comps) == 0 {
		return 0, 0
	}
	lats := make([]float64, len(comps))
	for i, c := range comps {
		lats[i] = c.Latency()
	}
	sort.Float64s(lats)
	rank := func(q float64) float64 {
		idx := int(math.Ceil(q*float64(len(lats)))) - 1
		if idx < 0 {
			idx = 0
		}
		return lats[idx]
	}
	return rank(0.50), rank(0.99)
}

// WriteAvailability renders the availability sweep: one block per
// drive MTTF, one row per (MTTR, replicas), with the served fraction,
// the failure-handling counters, and sojourn percentiles. Fixed
// formatting keeps the table byte-deterministic.
func WriteAvailability(w io.Writer, cells []OutageCell) error {
	var mttfs []float64
	seen := make(map[float64]bool)
	for _, c := range cells {
		if !seen[c.MTTFSec] {
			seen[c.MTTFSec] = true
			mttfs = append(mttfs, c.MTTFSec)
		}
	}
	for _, mttf := range mttfs {
		label := "none (drives never fail)"
		if mttf > 0 {
			label = fmt.Sprintf("%g s", mttf)
		}
		if _, err := fmt.Fprintf(w, "# drive MTTF %s\n%8s %3s %8s %7s %7s %8s %8s %6s %9s %9s %10s %10s\n",
			label, "mttr", "R", "avail", "served", "failed", "rescued", "replica", "shed", "lost-cart", "drive-dn", "p50 (s)", "p99 (s)"); err != nil {
			return err
		}
		for _, c := range cells {
			if c.MTTFSec != mttf {
				continue
			}
			m := c.Metrics
			if _, err := fmt.Fprintf(w, "%8.0f %3d %8.4f %7d %7d %8d %8d %6d %9d %9d %10.1f %10.1f\n",
				c.MTTRSec, c.Replicas, c.Availability, m.Served, m.Failed,
				m.Rescued, m.ReplicaReads, m.Shed, m.LostCartridges, m.DriveFailures,
				c.P50Sec, c.P99Sec); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
