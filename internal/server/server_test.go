package server

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"serpentine/internal/core"
	"serpentine/internal/drive"
	"serpentine/internal/fault"
	"serpentine/internal/geometry"
	"serpentine/internal/locate"
	"serpentine/internal/obs"
	"serpentine/internal/sim"
	"serpentine/internal/workload"
)

// run is the test harness: serve the stream, failing the test on any
// configuration error.
func run(t *testing.T, cfg Config, arrivals []Request) *Result {
	t.Helper()
	res, err := Run(cfg, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBatchingWindowEdgeCases(t *testing.T) {
	cases := []struct {
		name     string
		cfg      Config
		arrivals []Request
		check    func(t *testing.T, r *Result)
	}{
		{
			name:     "empty window: no arrivals at all",
			cfg:      Config{Policy: FixedWindow, WindowSec: 600},
			arrivals: nil,
			check: func(t *testing.T, r *Result) {
				if r.Served != 0 || r.Batches != 0 || r.MakespanSec != 0 {
					t.Fatalf("idle server did work: %+v", r)
				}
				// The idle summary is NaN-free zeros.
				for name, v := range map[string]float64{
					"p50": r.SojournP(50), "p99": r.SojournP(99),
					"throughput": r.ThroughputPerHour(), "mean svc": r.Service.Mean(),
				} {
					if v != 0 || math.IsNaN(v) {
						t.Fatalf("idle %s = %g, want 0", name, v)
					}
				}
			},
		},
		{
			name: "single request",
			cfg:  Config{Policy: FixedWindow, WindowSec: 600},
			arrivals: []Request{
				{ID: 0, Segment: 100000, ArrivalSec: 10},
			},
			check: func(t *testing.T, r *Result) {
				if r.Served != 1 || r.Batches != 1 {
					t.Fatalf("served=%d batches=%d, want 1/1", r.Served, r.Batches)
				}
				// The request waits from t=10 to the t=600 boundary
				// before dispatch, so its sojourn exceeds 590 s.
				if got := r.SojournP(50); got < 590 {
					t.Fatalf("sojourn %g s, want >= 590 (window wait)", got)
				}
			},
		},
		{
			name: "arrival exactly at the window boundary joins that batch",
			cfg:  Config{Policy: FixedWindow, WindowSec: 600},
			arrivals: []Request{
				{ID: 0, Segment: 100000, ArrivalSec: 10},
				{ID: 1, Segment: 200000, ArrivalSec: 600}, // exactly on the boundary
			},
			check: func(t *testing.T, r *Result) {
				if r.Served != 2 {
					t.Fatalf("served=%d, want 2", r.Served)
				}
				if r.Batches != 1 {
					t.Fatalf("batches=%d, want 1 — the boundary arrival must join the t=600 cut", r.Batches)
				}
			},
		},
		{
			name: "arrival just past the boundary waits for the next window",
			cfg:  Config{Policy: FixedWindow, WindowSec: 600},
			arrivals: []Request{
				{ID: 0, Segment: 100000, ArrivalSec: 10},
				{ID: 1, Segment: 200000, ArrivalSec: 600.001},
			},
			check: func(t *testing.T, r *Result) {
				if r.Served != 2 || r.Batches != 2 {
					t.Fatalf("served=%d batches=%d, want 2 served in 2 batches", r.Served, r.Batches)
				}
			},
		},
		{
			name: "queue-full rejection",
			cfg:  Config{Policy: QuiesceThenReplan, QueueCap: 2},
			arrivals: []Request{
				{ID: 0, Segment: 100000, ArrivalSec: 0},
				{ID: 1, Segment: 200000, ArrivalSec: 0},
				{ID: 2, Segment: 300000, ArrivalSec: 0},
				{ID: 3, Segment: 400000, ArrivalSec: 0},
			},
			check: func(t *testing.T, r *Result) {
				if r.Rejected != 2 {
					t.Fatalf("rejected=%d, want 2 (cap 2 at simultaneous arrival)", r.Rejected)
				}
				if r.Served != 2 {
					t.Fatalf("served=%d, want 2", r.Served)
				}
				if r.MaxQueueDepth != 2 {
					t.Fatalf("max depth=%d, want 2", r.MaxQueueDepth)
				}
				if got := r.Reg.Counter("rejected_total").Value(); got != 2 {
					t.Fatalf("rejected_total metric = %d, want 2", got)
				}
			},
		},
		{
			name: "quiesce batches whatever queued during service",
			cfg:  Config{Policy: QuiesceThenReplan},
			arrivals: []Request{
				{ID: 0, Segment: 100000, ArrivalSec: 0},
				// These three land while the first request is being
				// served (a random locate takes tens of seconds) and
				// must form one batch, not three.
				{ID: 1, Segment: 200000, ArrivalSec: 1},
				{ID: 2, Segment: 300000, ArrivalSec: 2},
				{ID: 3, Segment: 400000, ArrivalSec: 3},
			},
			check: func(t *testing.T, r *Result) {
				if r.Served != 4 {
					t.Fatalf("served=%d, want 4", r.Served)
				}
				if r.Batches != 2 {
					t.Fatalf("batches=%d, want 2 (singleton, then the quiesced three)", r.Batches)
				}
			},
		},
		{
			name: "max batch splits a cut",
			cfg:  Config{Policy: QuiesceThenReplan, MaxBatch: 2},
			arrivals: []Request{
				{ID: 0, Segment: 100000, ArrivalSec: 0},
				{ID: 1, Segment: 200000, ArrivalSec: 0},
				{ID: 2, Segment: 300000, ArrivalSec: 0},
			},
			check: func(t *testing.T, r *Result) {
				if r.Served != 3 || r.Batches != 2 {
					t.Fatalf("served=%d batches=%d, want 3 served in 2 batches", r.Served, r.Batches)
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.check(t, run(t, c.cfg, c.arrivals))
		})
	}
}

func TestRunRejectsMalformedStreams(t *testing.T) {
	cases := []struct {
		name     string
		arrivals []Request
	}{
		{"out-of-range segment", []Request{{Segment: 1 << 30, ArrivalSec: 0}}},
		{"negative segment", []Request{{Segment: -1, ArrivalSec: 0}}},
		{"negative time", []Request{{Segment: 1, ArrivalSec: -1}}},
		{"time going backwards", []Request{{Segment: 1, ArrivalSec: 5}, {Segment: 2, ArrivalSec: 4}}},
		{"NaN time", []Request{{Segment: 1, ArrivalSec: math.NaN()}}},
		{"Inf time", []Request{{Segment: 1, ArrivalSec: math.Inf(1)}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Run(Config{}, c.arrivals); err == nil {
				t.Fatal("malformed stream accepted")
			}
		})
	}
}

// A negative QueueCap once ran as the default 1024 and a negative
// ReadLen as 1; a NaN backoff once passed. Only an exact 0 selects a
// default, so each must be an error naming its field.
func TestRunRejectsBadConfig(t *testing.T) {
	cases := []struct {
		field string
		cfg   Config
	}{
		{"QueueCap", Config{QueueCap: -1}},
		{"ReadLen", Config{ReadLen: -1}},
		{"MaxBatch", Config{MaxBatch: -1}},
		{"MaxRetries", Config{Retry: sim.RetryPolicy{MaxRetries: -1}}},
		{"BackoffBaseSec", Config{Retry: sim.RetryPolicy{BackoffBaseSec: math.NaN()}}},
	}
	for _, c := range cases {
		_, err := Run(c.cfg, []Request{{Segment: 1}})
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("negative or NaN %s: err = %v, want an error naming it", c.field, err)
		}
	}
}

// TestZeroArrivalEquivalentToBatchChain pins the serving layer to the
// closed-batch experiment it generalizes: with every request already
// queued at time zero and batches cut at the chain's batch size, the
// server must reproduce BatchChain's executed-mode run bit for bit —
// same per-batch durations, same total, same final head position.
func TestZeroArrivalEquivalentToBatchChain(t *testing.T) {
	const (
		serial    = int64(1)
		batchSize = 24
		batches   = 4
		seed      = int64(7)
	)
	tape, err := geometry.Generate(geometry.DLT4000(), serial)
	if err != nil {
		t.Fatal(err)
	}
	model, err := locate.FromKeyPoints(tape.KeyPoints())
	if err != nil {
		t.Fatal(err)
	}

	chain, err := sim.BatchChain(sim.ChainConfig{
		Model:     model,
		Scheduler: core.NewLOSS(),
		BatchSize: batchSize,
		Batches:   batches,
		Warmup:    1,
		Seed:      seed,
		Drive:     drive.New(tape),
	})
	if err != nil {
		t.Fatal(err)
	}

	// The same request stream, all arrived at t=0: the generator
	// draws per batch exactly as the chain does.
	gen := workload.NewUniform(model.Segments(), seed)
	var arrivals []Request
	for b := 0; b < batches; b++ {
		for _, seg := range gen.Batch(batchSize) {
			arrivals = append(arrivals, Request{ID: len(arrivals), Segment: seg})
		}
	}
	res := run(t, Config{
		Serial:    serial,
		Scheduler: core.NewLOSS(),
		Policy:    QuiesceThenReplan,
		QueueCap:  len(arrivals),
		MaxBatch:  batchSize,
	}, arrivals)

	if res.Served != batchSize*batches {
		t.Fatalf("served=%d, want %d", res.Served, batchSize*batches)
	}
	if res.Batches != batches {
		t.Fatalf("batches=%d, want %d", res.Batches, batches)
	}
	if res.FinalHead != chain.FinalHead {
		t.Fatalf("final head %d, chain %d", res.FinalHead, chain.FinalHead)
	}
	// BatchChain's TotalSec covers the post-warmup batches; the
	// server's per-batch durations must match it exactly (same float
	// operations in the same order — byte-identical, not approximate).
	var total float64
	for _, d := range res.BatchDurations[1:] {
		total += d
	}
	if total != chain.TotalSec {
		t.Fatalf("measured batch time %v, chain %v — executed paths diverged", total, chain.TotalSec)
	}
	if res.IdleSec != 0 {
		t.Fatalf("zero-arrival run accounted %g s idle", res.IdleSec)
	}
}

// TestReplanOnArrivalReplansIncrementally drives the incremental
// policy with arrivals timed to land mid-service and checks the
// re-scheduling actually happens.
func TestReplanOnArrivalReplansIncrementally(t *testing.T) {
	arrivals := []Request{
		{ID: 0, Segment: 100000, ArrivalSec: 0},
		{ID: 1, Segment: 500000, ArrivalSec: 0},
		// Land while the first two are in service.
		{ID: 2, Segment: 120000, ArrivalSec: 5},
		{ID: 3, Segment: 510000, ArrivalSec: 6},
	}
	res := run(t, Config{Policy: ReplanOnArrival, Scheduler: core.NewSLTF()}, arrivals)
	if res.Served != 4 {
		t.Fatalf("served=%d, want 4", res.Served)
	}
	if res.IncrementalReplans == 0 {
		t.Fatal("mid-service arrivals never triggered an incremental replan")
	}
	if got := res.Reg.Counter("incremental_replans_total").Value(); got != int64(res.IncrementalReplans) {
		t.Fatalf("metric says %d incremental replans, result says %d", got, res.IncrementalReplans)
	}
}

// TestServerEmitsObservability checks the metric surface: drive-op
// counters and histograms, and sojourn/service histograms.
func TestServerEmitsObservability(t *testing.T) {
	reg := obs.NewRegistry()
	arrivals := []Request{
		{ID: 0, Segment: 100000, ArrivalSec: 0},
		{ID: 1, Segment: 300000, ArrivalSec: 0},
	}
	res := run(t, Config{
		Policy: QuiesceThenReplan,
		Reg:    reg,
		Labels: []obs.Label{obs.L("cell", "test")},
	}, arrivals)
	if res.Reg != reg {
		t.Fatal("result does not expose the provided registry")
	}
	if got := reg.Counter("served_total", obs.L("cell", "test")).Value(); got != 2 {
		t.Fatalf("served_total = %d, want 2", got)
	}
	locates := reg.Counter("drive_ops_total", obs.L("op", "locate"), obs.L("cell", "test")).Value()
	if locates < 2 {
		t.Fatalf("drive_ops_total{op=locate} = %d, want >= 2", locates)
	}
	h := reg.Histogram("sojourn_seconds", obs.L("cell", "test"))
	if h.Count() != 2 || h.Quantile(99) <= 0 {
		t.Fatalf("sojourn histogram count=%d p99=%g", h.Count(), h.Quantile(99))
	}
}

// TestSojournAccounting pins the metric definitions: sojourn is
// completion minus arrival, service is completion minus dispatch, so
// for a request that waits w seconds before its batch starts,
// sojourn = w + service.
func TestSojournAccounting(t *testing.T) {
	res := run(t, Config{Policy: FixedWindow, WindowSec: 100}, []Request{
		{ID: 0, Segment: 250000, ArrivalSec: 40},
	})
	if res.Served != 1 {
		t.Fatalf("served=%d, want 1", res.Served)
	}
	wait := 100.0 - 40.0 // arrival to window boundary
	got := res.SojournTimes[0] - res.ServiceTimes[0]
	if math.Abs(got-wait) > 1e-9 {
		t.Fatalf("sojourn-service = %g, want %g (the admission wait)", got, wait)
	}
}

// Attaching span tracing must not change one bit of a run: batching
// decisions, completions and recovery accounting are all clock-driven,
// and spans only read the clock.
func TestSpanTracingDoesNotPerturbTiming(t *testing.T) {
	gen := workload.NewUniform(segmentSpace, 42)
	arrivals, err := PoissonStream(120.0/3600, 60, 7, gen)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range AllPolicies() {
		cfg := Config{
			Policy:    policy,
			Scheduler: core.NewSLTF(),
			Faults:    fault.Config{TransientRate: 0.05, OvershootRate: 0.02, LostRate: 0.005, Seed: 9},
		}
		bare := run(t, cfg, arrivals)
		cfg.Spans = obs.NewTracer(1 << 16)
		traced := run(t, cfg, arrivals)

		bare.Reg, traced.Reg = nil, nil // registries hold pointers, compared via the dumps elsewhere
		if !reflect.DeepEqual(bare, traced) {
			t.Fatalf("%s: span tracing perturbed the run:\nbare:   %+v\ntraced: %+v", policy, bare, traced)
		}

		// The trace must describe the run: a root span covering the
		// makespan, request spans whose queue child matches the
		// queue_sec attribute.
		spans := cfg.Spans.Spans()
		requests, queues := 0, 0
		byID := make(map[uint64]obs.Span)
		for _, s := range spans {
			byID[s.ID] = s
		}
		for _, s := range spans {
			switch s.Name {
			case "run":
				if s.StartSec != 0 || math.Abs(s.EndSec-traced.MakespanSec) > 1e-9 {
					t.Fatalf("%s: run span [%g,%g], want [0,%g]", policy, s.StartSec, s.EndSec, traced.MakespanSec)
				}
			case "request":
				requests++
			case "queue":
				queues++
				parent := byID[s.Parent]
				want := ""
				for _, a := range parent.Attrs {
					if a.Key == "queue_sec" {
						want = a.Value
					}
				}
				if got := strconv.FormatFloat(s.DurationSec(), 'g', -1, 64); want != "" && got != want {
					t.Fatalf("%s: queue span duration %s, parent queue_sec attr %s", policy, got, want)
				}
			}
		}
		if requests != traced.Served || queues != requests {
			t.Fatalf("%s: %d request spans, %d queue spans, served %d", policy, requests, queues, traced.Served)
		}
	}
}
