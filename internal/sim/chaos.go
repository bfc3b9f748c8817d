package sim

import (
	"fmt"
	"io"

	"serpentine/internal/core"
	"serpentine/internal/drive"
	"serpentine/internal/fault"
	"serpentine/internal/geometry"
	"serpentine/internal/locate"
	"serpentine/internal/obs"
)

// ChaosConfig describes a chaos experiment: the chained steady-state
// scenario executed on the emulated drive under an increasing fault
// rate, for every scheduler, measuring how throughput and tail
// latency degrade and how much recovery work each policy induces.
type ChaosConfig struct {
	// Serial selects the cartridge; 0 selects 1.
	Serial int64
	// Schedulers to compare; nil selects core.All(12), the paper's
	// eight. Schedulers that cannot run at the batch size (OPT beyond
	// 12 requests) are skipped, as in the paper.
	Schedulers []core.Scheduler
	// Rates are multipliers applied to the Base fault mix, one sweep
	// column each; nil selects {0, 0.5, 1, 2, 4}. Rate 0 is the
	// fault-free baseline.
	Rates []float64
	// Base is the fault mix at multiplier 1; a zero value selects
	// fault.Default. Its Seed is ignored: each cell derives its own
	// injector seed from Seed and the cell coordinates, so results do
	// not depend on sweep order or worker count.
	Base fault.Config
	// BatchSize, Batches and Warmup shape each cell's chained run;
	// zero values select 96, 12 and 2.
	BatchSize, Batches, Warmup int
	// ReadLen is the per-request transfer length; 0 means 1.
	ReadLen int
	// Policy bounds recovery.
	Policy RetryPolicy
	// Seed seeds request generation (shared by every cell, so all
	// cells schedule the same request stream) and the per-cell
	// injector seeds.
	Seed int64
	// Workers bounds concurrent cells; 0 selects GOMAXPROCS.
	Workers int
	// Reg, when non-nil, receives per-cell outcome and recovery
	// metrics labeled by (alg, rate), recorded in spec order after the
	// parallel phase so the dump is identical at any worker count.
	Reg *obs.Registry
}

// ChaosCell is one (scheduler, fault rate) outcome.
type ChaosCell struct {
	Alg    string
	Rate   float64
	Result ChainResult
}

// ChaosSweep runs every (scheduler, rate) cell of the experiment.
// Cells run concurrently up to cfg.Workers, but each cell is fully
// deterministic — its drive, injector seed and request stream depend
// only on the config and the cell's coordinates — so the sweep's
// output is identical at any worker count.
func ChaosSweep(cfg ChaosConfig) ([]ChaosCell, error) {
	if err := CheckSizes("sim: chaos", map[string]int{
		"BatchSize": cfg.BatchSize, "Batches": cfg.Batches, "Warmup": cfg.Warmup,
		"ReadLen": cfg.ReadLen, "Workers": cfg.Workers,
	}); err != nil {
		return nil, err
	}
	serial := cfg.Serial
	if serial == 0 {
		serial = 1
	}
	scheds := cfg.Schedulers
	if scheds == nil {
		scheds = core.All(12)
	}
	rates := cfg.Rates
	if rates == nil {
		rates = []float64{0, 0.5, 1, 2, 4}
	}
	for _, r := range rates {
		// fault.Config.Scale clamps to [0,1]; a negative or non-finite
		// multiplier must fail here rather than run as 0 or 1.
		if err := CheckFinite("sim: chaos", map[string]float64{"Rates": r}); err != nil {
			return nil, err
		}
	}
	base := cfg.Base
	if !base.Enabled() {
		base = fault.Default(0)
	}
	batch := cfg.BatchSize
	if batch == 0 {
		batch = 96
	}
	batches := cfg.Batches
	if batches == 0 {
		batches = 12
	}
	warmup := cfg.Warmup
	if warmup == 0 {
		warmup = 2
	}

	cart, err := locate.Load(geometry.DLT4000(), serial)
	if err != nil {
		return nil, fmt.Errorf("sim: chaos tape: %w", err)
	}
	tape, model := cart.Tape(), cart.Model()

	type cellSpec struct {
		sched   core.Scheduler
		algIdx  int
		rateIdx int
	}
	var specs []cellSpec
	for si, s := range scheds {
		if skipAtLength(s, batch, 12) {
			continue
		}
		for ri := range rates {
			specs = append(specs, cellSpec{sched: s, algIdx: si, rateIdx: ri})
		}
	}
	cells, err := Cells(specs, cfg.Workers, func(sp cellSpec) (ChaosCell, error) {
		faults := base.Scale(rates[sp.rateIdx])
		// One injector seed per cell coordinate: stable under
		// sweep-order and worker-count changes.
		faults.Seed = cfg.Seed*1000003 + int64(sp.algIdx)*8191 + int64(sp.rateIdx)*131 + 7
		res, err := BatchChain(ChainConfig{
			Model:     model,
			Scheduler: sp.sched,
			BatchSize: batch,
			Batches:   batches,
			Warmup:    warmup,
			ReadLen:   cfg.ReadLen,
			Seed:      cfg.Seed,
			Drive:     drive.New(tape),
			Faults:    faults,
			Policy:    cfg.Policy,
		})
		if err != nil {
			return ChaosCell{}, fmt.Errorf("sim: chaos %s rate %g: %w", sp.sched.Name(), rates[sp.rateIdx], err)
		}
		return ChaosCell{Alg: sp.sched.Name(), Rate: rates[sp.rateIdx], Result: res}, nil
	})
	if err != nil {
		return nil, err
	}
	if cfg.Reg != nil {
		// Record in spec order so the dump is independent of which
		// worker ran which cell.
		for _, c := range cells {
			ls := []obs.Label{obs.L("alg", c.Alg), obs.L("rate", fmt.Sprintf("%g", c.Rate))}
			r := c.Result
			cfg.Reg.Counter("served_total", ls...).Add(int64(r.Served))
			cfg.Reg.Counter("failed_total", ls...).Add(int64(r.FailedRequests))
			cfg.Reg.Counter("retries_total", ls...).Add(int64(r.Retries))
			cfg.Reg.Counter("replans_total", ls...).Add(int64(r.Replans))
			cfg.Reg.Counter("recalibrations_total", ls...).Add(int64(r.Recalibrations))
			cfg.Reg.Counter("fallbacks_total", ls...).Add(int64(r.Fallbacks))
			cfg.Reg.Gauge("recovery_seconds", ls...).Set(r.RecoverySec)
			h := cfg.Reg.Histogram("completion_seconds", ls...)
			for _, v := range r.Completions {
				h.Observe(v)
			}
		}
	}
	return cells, nil
}

// WriteChaos prints the sweep: one block per fault-rate multiplier,
// one row per scheduler, with throughput, tail latency and recovery
// counters.
func WriteChaos(w io.Writer, cells []ChaosCell) error {
	var rates []float64
	seen := make(map[float64]bool)
	for _, c := range cells {
		if !seen[c.Rate] {
			seen[c.Rate] = true
			rates = append(rates, c.Rate)
		}
	}
	for _, rate := range rates {
		if _, err := fmt.Fprintf(w, "# fault rate x%g\n%-8s %8s %9s %8s %8s %7s %7s %7s %9s\n",
			rate, "alg", "IO/h", "p99 s", "served", "failed", "retry", "replan", "recal", "recov%"); err != nil {
			return err
		}
		for _, c := range cells {
			if c.Rate != rate {
				continue
			}
			r := c.Result
			recovPct := 0.0
			if r.TotalSec > 0 {
				recovPct = r.RecoverySec / r.TotalSec * 100
			}
			if _, err := fmt.Fprintf(w, "%-8s %8.1f %9.1f %8d %8d %7d %7d %7d %9.2f\n",
				c.Alg, r.IOsPerHour(), r.P99CompletionSec(), r.Served, r.FailedRequests,
				r.Retries, r.Replans, r.Recalibrations, recovPct); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
