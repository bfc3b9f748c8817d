package tertiary

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"serpentine/internal/core"
	"serpentine/internal/fault"
	"serpentine/internal/server"
)

// driveRunner feeds the stream through the incremental Runner exactly
// as the fleet's routing tier does: advance to each arrival timestamp,
// offer every request carrying it, repeat, then drain.
func driveRunner(t *testing.T, lib *Library, stream []Request) ([]Completion, Metrics) {
	t.Helper()
	r, err := lib.StartRun()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(stream); {
		at := stream[i].Arrival
		if err := r.AdvanceTo(at); err != nil {
			t.Fatal(err)
		}
		for ; i < len(stream) && stream[i].Arrival == at; i++ {
			if err := r.Offer(stream[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	comps, m, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return comps, m
}

// TestRunnerMatchesRun pins the Runner contract: a runner fed a Run
// call's requests between AdvanceTo calls at their own timestamps
// produces bit-identical completions and metrics to that Run call,
// across batch policies and under lifecycle faults. This is the
// equivalence the fleet's single-shard test builds on.
func TestRunnerMatchesRun(t *testing.T) {
	cases := []struct {
		name string
		cfg  func(serials []int64) Config
	}{
		{"quiesce", func(serials []int64) Config {
			return Config{Tapes: serials, Drives: 2, BatchLimit: 8, Scheduler: core.NewLOSS()}
		}},
		{"fixed-window", func(serials []int64) Config {
			return Config{Tapes: serials, Drives: 2, BatchLimit: 8,
				Policy: server.FixedWindow, WindowSec: 120}
		}},
		{"replan-on-arrival", func(serials []int64) Config {
			return Config{Tapes: serials, Drives: 1, Policy: server.ReplanOnArrival}
		}},
		{"lifecycle", func(serials []int64) Config {
			return Config{Tapes: serials, Drives: 2, BatchLimit: 8,
				QueueCap: 16, DeadlineSec: 4000,
				Lifecycle: fault.LifecycleConfig{
					DriveMTTFSec:      3000,
					DriveMTTRSec:      600,
					RobotStallRate:    0.05,
					CartridgeLossRate: 0.02,
					Seed:              99,
				}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lib, stream := buildRunnerLibrary(t, 2, 8)
			lib = lib.Clone(tc.cfg(lib.Tapes()))
			wantComps, wantM, err := lib.Run(stream)
			if err != nil {
				t.Fatal(err)
			}
			gotComps, gotM := driveRunner(t, lib, stream)
			if gotM != wantM {
				t.Errorf("metrics diverge:\nrunner: %+v\nrun:    %+v", gotM, wantM)
			}
			if !reflect.DeepEqual(gotComps, wantComps) {
				t.Errorf("completions diverge: runner %d vs run %d", len(gotComps), len(wantComps))
			}
		})
	}
}

// TestRunnerProbes exercises the routing probes mid-run: the queue
// depth counts an offered request until it dispatches, and a mounted
// cartridge shows up in both Mounted and MountedSerials.
func TestRunnerProbes(t *testing.T) {
	lib, stream := buildRunnerLibrary(t, 1, 4)
	r, err := lib.StartRun()
	if err != nil {
		t.Fatal(err)
	}
	if d := r.QueueDepth(); d != 0 {
		t.Fatalf("fresh runner queue depth %d", d)
	}
	if h := r.Headroom(); h != 1 {
		t.Fatalf("fresh runner headroom %g", h)
	}
	req := stream[0]
	if err := r.Offer(req); err != nil {
		t.Fatal(err)
	}
	if d := r.QueueDepth(); d != 1 {
		t.Fatalf("queue depth after offer %d, want 1", d)
	}
	// Advance far enough that the request mounted and completed.
	if err := r.AdvanceTo(req.Arrival + 7200); err != nil {
		t.Fatal(err)
	}
	if d := r.QueueDepth(); d != 0 {
		t.Fatalf("queue depth after drain %d, want 0", d)
	}
	o, _ := lib.catalog.Get(req.ObjectID)
	if !r.Mounted(o.Tape) {
		t.Errorf("cartridge %d not reported mounted after serving", o.Tape)
	}
	serials := r.MountedSerials()
	found := false
	for _, s := range serials {
		if s == o.Tape {
			found = true
		}
	}
	if !found {
		t.Errorf("MountedSerials %v misses %d", serials, o.Tape)
	}
	if r.CartridgeLost(o.Tape) {
		t.Errorf("fault-free run reports cartridge %d lost", o.Tape)
	}
	if _, _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestRunnerErrors pins the misuse surface: offers behind the clock,
// unknown objects, use after Finish.
func TestRunnerErrors(t *testing.T) {
	lib, stream := buildRunnerLibrary(t, 1, 4)
	r, err := lib.StartRun()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Offer(Request{ObjectID: "no-such", Arrival: 1}); err == nil {
		t.Error("unknown object accepted")
	}
	if err := r.Offer(Request{ObjectID: stream[0].ObjectID, Arrival: 100}); err != nil {
		t.Fatal(err)
	}
	if err := r.Offer(Request{ObjectID: stream[0].ObjectID, Arrival: 50}); err == nil ||
		!strings.Contains(err.Error(), "behind the clock") {
		t.Errorf("out-of-order offer error = %v", err)
	}
	if err := r.AdvanceTo(math.NaN()); err == nil {
		t.Error("AdvanceTo(NaN) accepted")
	}
	if err := r.AdvanceTo(5000); err != nil {
		t.Fatal(err)
	}
	// Serving the offered request moved the clock past its arrival;
	// an offer just behind the clock must be refused.
	if now := r.Now(); now > 101 {
		if err := r.Offer(Request{ObjectID: stream[0].ObjectID, Arrival: now - 1}); err == nil {
			t.Error("offer behind the advanced clock accepted")
		}
	} else {
		t.Fatalf("clock did not advance past the served request (now %g)", now)
	}
	if _, _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := r.Offer(Request{ObjectID: stream[0].ObjectID, Arrival: 9999}); err == nil {
		t.Error("offer after Finish accepted")
	}
	if err := r.AdvanceTo(9999); err == nil {
		t.Error("advance after Finish accepted")
	}
	if _, _, err := r.Finish(); err == nil {
		t.Error("double Finish accepted")
	}
}

// buildRunnerLibrary builds a 4-tape store shaped like the sweep's, and
// a request stream over it.
func buildRunnerLibrary(t *testing.T, drives, batchLimit int) (*Library, []Request) {
	t.Helper()
	const tapes, objects, objSegs = 4, 256, 32
	catalog := NewCatalog()
	serials := make([]int64, tapes)
	for tp := 0; tp < tapes; tp++ {
		serials[tp] = int64(4000 + tp)
	}
	lib0, err := New(Config{Tapes: serials}, mustSweepCatalog(t, catalog, serials, objects, objSegs))
	if err != nil {
		t.Fatal(err)
	}
	lib := lib0.Clone(Config{
		Tapes:      serials,
		Drives:     drives,
		BatchLimit: batchLimit,
		Scheduler:  core.NewLOSS(),
	})
	stream, err := SweepStream(240, 200, 424242, tapes, objects, 0)
	if err != nil {
		t.Fatal(err)
	}
	return lib, stream
}

func mustSweepCatalog(t *testing.T, catalog *Catalog, serials []int64, objects, objSegs int) *Catalog {
	t.Helper()
	for ti, serial := range serials {
		for o := 0; o < objects; o++ {
			if err := catalog.Put(Object{
				ID:       sweepObjectID(ti, o),
				Tape:     serial,
				Start:    o * 2048,
				Segments: objSegs,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return catalog
}
