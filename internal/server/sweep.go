package server

import (
	"fmt"
	"io"

	"serpentine/internal/core"
	"serpentine/internal/fault"
	"serpentine/internal/obs"
	"serpentine/internal/sim"
	"serpentine/internal/workload"
)

// SweepConfig describes the online experiment: the server run at
// every (arrival rate, batching policy, scheduler) cell, measuring
// how sojourn time and throughput respond to arrival pressure under
// each batching regime — the online analogue of the paper's
// batch-size sensitivity study.
type SweepConfig struct {
	// Serial selects the cartridge; 0 selects 1.
	Serial int64
	// RatesPerHour are the Poisson arrival rates to sweep; nil
	// selects {30, 60, 120}. A DLT4000-class drive serves roughly
	// 100-120 random retrievals per hour under LOSS, so the default
	// grid spans light load to saturation.
	RatesPerHour []float64
	// Policies are the batching policies; nil selects all three.
	Policies []BatchPolicy
	// Schedulers to compare; nil selects SORT, SLTF, SCAN, WEAVE and
	// LOSS (the paper's contenders that stay tractable at any batch
	// size an open queue can reach).
	Schedulers []core.Scheduler
	// Requests is the stream length per cell; 0 selects 300.
	Requests int
	// WindowSec is the FixedWindow period; 0 selects 600.
	WindowSec float64
	// QueueCap bounds the admission queue; 0 selects 1024.
	QueueCap int
	// MaxBatch caps each cut batch; 0 means unbounded.
	MaxBatch int
	// ReadLen is the per-request transfer length; 0 means 1.
	ReadLen int
	// Retry bounds the executor's recovery.
	Retry sim.RetryPolicy
	// Faults arms every cell's drive when any rate is non-zero. Its
	// Seed is ignored: each cell derives an injector seed from Seed
	// and the cell coordinates.
	Faults fault.Config
	// Seed seeds each cell's arrival stream (times and segments),
	// derived per cell so results do not depend on sweep order or
	// worker count.
	Seed int64
	// Workers bounds concurrent cells; 0 selects GOMAXPROCS.
	Workers int
	// Reg, when non-nil, receives every cell's metrics, merged in
	// spec order after the parallel phase so the dump is identical
	// at any worker count.
	Reg *obs.Registry
	// Spans, when non-nil, receives every cell's lifecycle spans. The
	// tracer is shared live across workers (it exists for the -listen
	// introspection endpoints), so span arrival order — unlike the
	// merged metrics — depends on scheduling; use tertiary.Sweep's
	// per-cell span capture when byte-determinism matters.
	Spans *obs.Tracer
}

// SweepCell is one (rate, policy, scheduler) outcome.
type SweepCell struct {
	RatePerHour float64
	Policy      BatchPolicy
	Alg         string
	Result      *Result
}

// Sweep runs every cell of the online experiment. Cells run
// concurrently up to cfg.Workers, but each cell is fully
// deterministic — its arrival stream, drive and injector seed depend
// only on the config and the cell coordinates — so the sweep's output
// is identical at any worker count.
func Sweep(cfg SweepConfig) ([]SweepCell, error) {
	if err := sim.CheckSizes("server: sweep", map[string]int{
		"Requests": cfg.Requests, "QueueCap": cfg.QueueCap, "MaxBatch": cfg.MaxBatch,
		"ReadLen": cfg.ReadLen, "Workers": cfg.Workers,
	}); err != nil {
		return nil, err
	}
	rates := cfg.RatesPerHour
	if rates == nil {
		rates = []float64{30, 60, 120}
	}
	policies := cfg.Policies
	if policies == nil {
		policies = AllPolicies()
	}
	scheds := cfg.Schedulers
	if scheds == nil {
		scheds = []core.Scheduler{core.Sort{}, core.NewSLTF(), core.Scan{}, core.Weave{}, core.NewLOSS()}
	}
	n := cfg.Requests
	if n == 0 {
		n = 300
	}

	// Each spec carries the registry its cell records into, merged
	// below in spec order.
	type cellSpec struct {
		rateIdx, polIdx, algIdx int
		reg                     *obs.Registry
	}
	var specs []cellSpec
	for ri := range rates {
		for pi := range policies {
			for ai := range scheds {
				specs = append(specs, cellSpec{ri, pi, ai, obs.NewRegistry()})
			}
		}
	}
	cells, err := sim.Cells(specs, cfg.Workers, func(sp cellSpec) (SweepCell, error) {
		rate := rates[sp.rateIdx]
		policy := policies[sp.polIdx]
		sched := scheds[sp.algIdx]
		seed := sim.CellSeed(cfg.Seed, sp.rateIdx, sp.polIdx, sp.algIdx)
		gen := workload.NewUniform(segmentSpace, seed+1)
		arrivals, err := PoissonStream(rate/3600, n, seed, gen)
		if err != nil {
			return SweepCell{}, fmt.Errorf("server: sweep arrivals %g/h: %w", rate, err)
		}
		faults := cfg.Faults
		if faults.Enabled() {
			faults.Seed = seed + 3
		}
		res, err := Run(Config{
			Serial:    cfg.Serial,
			Scheduler: sched,
			Policy:    policy,
			WindowSec: cfg.WindowSec,
			QueueCap:  cfg.QueueCap,
			MaxBatch:  cfg.MaxBatch,
			ReadLen:   cfg.ReadLen,
			Retry:     cfg.Retry,
			Faults:    faults,
			Reg:       sp.reg,
			Spans:     cfg.Spans,
			Labels: []obs.Label{
				obs.L("rate", fmt.Sprintf("%g", rate)),
				obs.L("policy", policy.String()),
				obs.L("alg", sched.Name()),
			},
		}, arrivals)
		if err != nil {
			return SweepCell{}, fmt.Errorf("server: sweep cell %g/h %s %s: %w", rate, policy, sched.Name(), err)
		}
		return SweepCell{RatePerHour: rate, Policy: policy, Alg: sched.Name(), Result: res}, nil
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

// segmentSpace is the DLT4000 cartridge's segment count, the address
// space the sweep's uniform streams draw from. The paper's tape
// ("segment numbers range from 0 to 622057") has 622058 segments;
// generating a tape just to read its size would cost more than the
// constant, and Run re-validates every segment against the real
// model.
const segmentSpace = 622058

// WriteOnline prints the sweep: one block per arrival rate, one row
// per (policy, scheduler), with sojourn-time percentiles, mean
// service time, delivered throughput and the recovery/rejection
// counters.
func WriteOnline(w io.Writer, cells []SweepCell) error {
	var rates []float64
	seen := make(map[float64]bool)
	for _, c := range cells {
		if !seen[c.RatePerHour] {
			seen[c.RatePerHour] = true
			rates = append(rates, c.RatePerHour)
		}
	}
	for _, rate := range rates {
		if _, err := fmt.Fprintf(w, "# arrival rate %g/h\n%-18s %-6s %9s %9s %9s %8s %6s %7s %6s %6s %7s %8s\n",
			rate, "policy", "alg", "p50 soj", "p95 soj", "p99 soj", "mean svc", "batch", "IO/h", "served", "rej", "replan", "util%"); err != nil {
			return err
		}
		for _, c := range cells {
			if c.RatePerHour != rate {
				continue
			}
			r := c.Result
			util := 0.0
			if r.MakespanSec > 0 {
				util = r.BusySec / r.MakespanSec * 100
			}
			meanBatch := 0.0
			if r.Batches > 0 {
				meanBatch = float64(r.Served+r.Failed) / float64(r.Batches)
			}
			if _, err := fmt.Fprintf(w, "%-18s %-6s %9.1f %9.1f %9.1f %8.1f %6.1f %7.1f %6d %6d %7d %8.2f\n",
				c.Policy, c.Alg, r.SojournP(50), r.SojournP(95), r.SojournP(99),
				r.Service.Mean(), meanBatch, r.ThroughputPerHour(),
				r.Served, r.Rejected, r.Replans+r.IncrementalReplans, util); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
