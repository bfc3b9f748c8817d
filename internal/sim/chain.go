package sim

import (
	"fmt"
	"math"

	"serpentine/internal/core"
	"serpentine/internal/drive"
	"serpentine/internal/fault"
	"serpentine/internal/locate"
	"serpentine/internal/stats"
	"serpentine/internal/workload"
)

// ChainConfig describes the paper's first scenario made literal: "a
// tape is scheduled repeatedly, executing retrievals in batches. In
// this case, at the beginning of each schedule execution the tape
// head is in the position of the last read in the previous batch."
// Instead of approximating that steady state by drawing a random
// starting position per trial (as the Figure 3 pseudocode does),
// BatchChain actually chains the batches and measures the steady
// state directly.
//
// The chain runs in one of two modes. With Drive nil (the default),
// batches are estimated under the cost model, exactly as before. With
// Drive set, every batch is *executed* on the emulated drive through
// the recovering Executor, the head position chains through the
// drive's real (possibly fault-perturbed) position, and Faults
// optionally arms the drive with an injector so the steady-state
// scenario exercises retry, replanning and recalibration.
type ChainConfig struct {
	// Model is the cost model.
	Model locate.Cost
	// Scheduler orders each batch; nil selects LOSS.
	Scheduler core.Scheduler
	// BatchSize is the number of requests per batch.
	BatchSize int
	// Batches is how many batches to chain.
	Batches int
	// Warmup batches are executed but excluded from the statistics
	// (the first batch starts at the beginning of tape); 0 selects 1.
	Warmup int
	// ReadLen is the per-request transfer length; 0 means 1.
	ReadLen int
	// Seed seeds request generation.
	Seed int64
	// Workload generates batches; nil selects uniform.
	Workload workload.Generator

	// Drive, when non-nil, switches the chain to executed mode: each
	// batch runs on this drive via the Executor.
	Drive *drive.Drive
	// Faults arms Drive with a fault injector when any rate is
	// non-zero. Ignored in estimate mode.
	Faults fault.Config
	// Policy bounds the Executor's recovery in executed mode.
	Policy RetryPolicy
}

// ChainResult summarizes a chained run. The recovery fields are only
// non-zero for executed-mode runs with faults armed; they cover the
// measured (post-warmup) batches.
type ChainResult struct {
	// PerLocate accumulates each measured batch's per-request time.
	PerLocate stats.Accumulator
	// TotalSec is the summed execution time of the measured batches:
	// estimated in estimate mode, measured on the drive in executed
	// mode.
	TotalSec float64
	// Requests is the number of requests in the measured batches.
	Requests int
	// FinalHead is the head position after the last batch.
	FinalHead int

	// Executed reports whether the run executed on a drive.
	Executed bool
	// Served and FailedRequests partition the measured requests by
	// outcome; estimate mode serves everything by definition.
	Served         int
	FailedRequests int
	// Retries, Replans, Recalibrations and Fallbacks total the
	// executor's recovery actions over the measured batches.
	Retries        int
	Replans        int
	Recalibrations int
	Fallbacks      int
	// RecoverySec is the measured time spent on recovery: failed
	// attempts, backoff waits and recalibrations.
	RecoverySec float64
	// Completions holds every served request's completion offset from
	// its batch start, for tail-latency percentiles.
	Completions []float64
}

// IOsPerHour is the steady-state retrieval rate over *completed*
// retrievals. It is guarded against degenerate inputs: an empty
// measurement window, an all-failed run, or a non-finite total yields
// 0 rather than NaN or Inf.
func (r ChainResult) IOsPerHour() float64 {
	done := r.Requests - r.FailedRequests
	if done <= 0 || !(r.TotalSec > 0) || math.IsInf(r.TotalSec, 0) {
		return 0
	}
	return float64(done) / r.TotalSec * 3600
}

// P99CompletionSec is the 99th-percentile per-request completion time
// of the measured batches, or 0 when nothing completed.
func (r ChainResult) P99CompletionSec() float64 {
	return stats.PercentileOrZero(r.Completions, 99)
}

// BatchChain runs the chained-batch experiment.
func BatchChain(cfg ChainConfig) (ChainResult, error) {
	if cfg.Model == nil {
		return ChainResult{}, fmt.Errorf("sim: BatchChain needs a model")
	}
	if cfg.BatchSize < 1 || cfg.Batches < 1 {
		return ChainResult{}, fmt.Errorf("sim: BatchChain needs positive batch size and count")
	}
	sched := cfg.Scheduler
	if sched == nil {
		sched = core.NewLOSS()
	}
	warmup := cfg.Warmup
	if warmup <= 0 {
		warmup = 1
	}
	gen := cfg.Workload
	if gen == nil {
		gen = workload.NewUniform(cfg.Model.Segments(), cfg.Seed)
	}
	var exec *Executor
	if cfg.Drive != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return ChainResult{}, fmt.Errorf("sim: BatchChain faults: %w", err)
		}
		if err := cfg.Policy.Validate(); err != nil {
			return ChainResult{}, err
		}
		if cfg.Faults.Enabled() {
			cfg.Drive.AttachFaults(fault.New(cfg.Faults))
		}
		exec = &Executor{Drive: cfg.Drive, Scheduler: sched, Policy: cfg.Policy}
	}

	var res ChainResult
	res.Executed = exec != nil
	head := 0
	if exec != nil {
		head = cfg.Drive.Position()
	}
	for b := 0; b < cfg.Batches; b++ {
		p := &core.Problem{
			Start:    head,
			Requests: gen.Batch(cfg.BatchSize),
			ReadLen:  cfg.ReadLen,
			Cost:     cfg.Model,
		}
		plan, err := sched.Schedule(p)
		if err != nil {
			return res, fmt.Errorf("sim: chained batch %d: %w", b, err)
		}
		if exec == nil {
			est := plan.Estimate(p)
			head = plan.FinalHead(p)
			if b < warmup {
				continue
			}
			res.PerLocate.Add(est.Total() / float64(cfg.BatchSize))
			res.TotalSec += est.Total()
			res.Requests += cfg.BatchSize
			res.Served += cfg.BatchSize
			continue
		}
		er, err := exec.Execute(p, plan)
		if err != nil {
			return res, fmt.Errorf("sim: executing chained batch %d: %w", b, err)
		}
		head = cfg.Drive.Position()
		if b < warmup {
			continue
		}
		res.PerLocate.Add(er.ElapsedSec / float64(cfg.BatchSize))
		res.TotalSec += er.ElapsedSec
		res.Requests += cfg.BatchSize
		res.Served += len(er.Served)
		res.FailedRequests += len(er.Failed)
		res.Retries += er.Retries
		res.Replans += er.Replans
		res.Recalibrations += er.Recalibrations
		res.Fallbacks += er.Fallbacks
		res.RecoverySec += er.RecoverySec
		res.Completions = append(res.Completions, er.Completions...)
	}
	res.FinalHead = head
	return res, nil
}
