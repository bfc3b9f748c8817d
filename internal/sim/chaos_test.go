package sim

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"serpentine/internal/core"
	"serpentine/internal/fault"
)

// Executed-mode chains with zero fault rates must serve everything
// with no recovery activity.
func TestBatchChainExecutedFaultFree(t *testing.T) {
	m, d := execFixture(t, 1, fault.Config{})
	res, err := BatchChain(ChainConfig{
		Model:     m,
		BatchSize: 8,
		Batches:   4,
		Warmup:    1,
		Seed:      3,
		Drive:     d,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Executed {
		t.Fatal("drive-backed run not marked executed")
	}
	if res.Served != 24 || res.FailedRequests != 0 {
		t.Fatalf("served %d failed %d, want 24/0", res.Served, res.FailedRequests)
	}
	if res.Retries+res.Replans+res.Recalibrations != 0 || res.RecoverySec != 0 {
		t.Fatalf("recovery activity without faults: %+v", res)
	}
	if len(res.Completions) != 24 {
		t.Fatalf("%d completion samples, want 24", len(res.Completions))
	}
	if res.P99CompletionSec() <= 0 {
		t.Fatal("p99 completion not positive")
	}
	if res.FinalHead != d.Position() {
		t.Fatal("final head does not track the drive")
	}
}

// The chained scenario under faults must recover and account for it,
// and identical configs must reproduce identical counts.
func TestBatchChainExecutedWithFaultsReproducible(t *testing.T) {
	run := func() ChainResult {
		m, d := execFixture(t, 1, fault.Config{})
		res, err := BatchChain(ChainConfig{
			Model:     m,
			BatchSize: 8,
			Batches:   5,
			Warmup:    1,
			Seed:      3,
			Drive:     d,
			Faults: fault.Config{
				TransientRate: 0.2,
				OvershootRate: 0.1,
				LostRate:      0.05,
				MediaRate:     0.001,
				Seed:          17,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Retries == 0 {
		t.Fatal("heavy fault mix produced no retries")
	}
	if a.Served+a.FailedRequests != a.Requests {
		t.Fatalf("outcome partition broken: %d served + %d failed != %d requests",
			a.Served, a.FailedRequests, a.Requests)
	}
	if a.Retries != b.Retries || a.Replans != b.Replans || a.Recalibrations != b.Recalibrations ||
		a.FailedRequests != b.FailedRequests || a.TotalSec != b.TotalSec {
		t.Fatalf("chained fault runs diverged:\n%+v\n%+v", a, b)
	}
	if a.RecoverySec <= 0 || a.RecoverySec >= a.TotalSec {
		t.Fatalf("recovery accounting %f of %f implausible", a.RecoverySec, a.TotalSec)
	}
}

func TestBatchChainRejectsInvalidFaultConfig(t *testing.T) {
	m, d := execFixture(t, 1, fault.Config{})
	_, err := BatchChain(ChainConfig{
		Model: m, BatchSize: 4, Batches: 2, Drive: d,
		Faults: fault.Config{TransientRate: 1.5},
	})
	if err == nil {
		t.Fatal("invalid fault rate accepted")
	}
}

// fault.Config.Scale clamps every rate into [0,1], so a negative
// multiplier once ran as a fault-free cell under a "x-1" header. The
// sweep must reject a negative or non-finite multiplier by name.
func TestChaosSweepRejectsBadRateMultipliers(t *testing.T) {
	for _, r := range []float64{-1, math.NaN(), math.Inf(1)} {
		cfg := chaosDefaults(1)
		cfg.Rates = []float64{0, r}
		if _, err := ChaosSweep(cfg); err == nil || !strings.Contains(err.Error(), "Rates") {
			t.Errorf("rate multiplier %g: err = %v, want an error naming Rates", r, err)
		}
	}
}

// chaosDefaults shrinks the sweep for tests.
func chaosDefaults(workers int) ChaosConfig {
	return ChaosConfig{
		Schedulers: []core.Scheduler{core.NewLOSS(), core.Scan{}},
		Rates:      []float64{0, 4},
		BatchSize:  8,
		Batches:    3,
		Warmup:     1,
		Seed:       5,
		Workers:    workers,
	}
}

// The acceptance criterion: a seeded chaos run is reproducible — the
// same seed and fault config give identical retry/replan/failure
// counts across runs and across worker counts.
func TestChaosSweepReproducibleAcrossWorkerCounts(t *testing.T) {
	one, err := ChaosSweep(chaosDefaults(1))
	if err != nil {
		t.Fatal(err)
	}
	four, err := ChaosSweep(chaosDefaults(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 4 || len(four) != 4 {
		t.Fatalf("cell counts %d/%d, want 4 (2 schedulers x 2 rates)", len(one), len(four))
	}
	for i := range one {
		a, b := one[i], four[i]
		if a.Alg != b.Alg || a.Rate != b.Rate {
			t.Fatalf("cell %d coordinates diverged: %s/%g vs %s/%g", i, a.Alg, a.Rate, b.Alg, b.Rate)
		}
		ra, rb := a.Result, b.Result
		if ra.Retries != rb.Retries || ra.Replans != rb.Replans ||
			ra.Recalibrations != rb.Recalibrations || ra.FailedRequests != rb.FailedRequests ||
			ra.TotalSec != rb.TotalSec {
			t.Fatalf("cell %s x%g differs between 1 and 4 workers:\n%+v\n%+v", a.Alg, a.Rate, ra, rb)
		}
	}
	// The faulted column must show recovery activity somewhere.
	activity := 0
	for _, c := range one {
		if c.Rate > 0 {
			activity += c.Result.Retries + c.Result.Replans + c.Result.FailedRequests
		}
	}
	if activity == 0 {
		t.Fatal("rate x4 produced no recovery activity in any cell")
	}
	// And the baseline column must show none.
	for _, c := range one {
		if c.Rate == 0 && (c.Result.Retries != 0 || c.Result.FailedRequests != 0) {
			t.Fatalf("fault-free baseline shows recovery: %+v", c.Result)
		}
	}
}

func TestChaosSkipsOPTBeyondItsLimit(t *testing.T) {
	cfg := chaosDefaults(1)
	cfg.Schedulers = []core.Scheduler{core.NewOPT(12), core.Scan{}}
	cfg.BatchSize = 16 // beyond OPT's limit
	cells, err := ChaosSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Alg == "OPT" {
			t.Fatal("OPT not skipped at batch 16")
		}
	}
	if len(cells) != 2 {
		t.Fatalf("%d cells, want 2 (SCAN only)", len(cells))
	}
}

func TestWriteChaosFormats(t *testing.T) {
	cells, err := ChaosSweep(chaosDefaults(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteChaos(&buf, cells); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# fault rate x0", "# fault rate x4", "LOSS", "SCAN", "IO/h", "p99 s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chaos table missing %q:\n%s", want, out)
		}
	}
}
