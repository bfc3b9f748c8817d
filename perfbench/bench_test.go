package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"serpentine/internal/geometry"
	"serpentine/internal/tertiary"
)

// TestMain lets the test binary stand in for the benchmark binary:
// a run times its repeated set-ups in child processes of its own
// executable, started with --setup-only.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "--setup-only" {
			os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
		}
	}
	os.Exit(m.Run())
}

func testIDs(tapes, perTape int) []string {
	var ids []string
	for t := 0; t < tapes; t++ {
		for o := 0; o < perTape; o++ {
			ids = append(ids, fleetObjectID(t, o))
		}
	}
	return ids
}

func TestStreamsFollowTheSeed(t *testing.T) {
	ids := testIDs(4, 32)
	a := openStream(7, 500, 120, ids, 32, 0.8, 0.25, 0.2)
	b := openStream(7, 500, 120, ids, 32, 0.8, 0.25, 0.2)
	c := openStream(8, 500, 120, ids, 32, 0.8, 0.25, 0.2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed produced different streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced the same stream")
	}
	writes := 0
	for i, o := range a {
		if i > 0 && o.at <= a[i-1].at {
			t.Fatalf("arrivals not increasing at %d: %g after %g", i, o.at, a[i-1].at)
		}
		if o.write {
			writes++
		}
	}
	if writes == 0 || writes == len(a) {
		t.Fatalf("%d writes in %d operations", writes, len(a))
	}

	objs := make([]tertiary.Object, len(ids))
	for i, id := range ids {
		objs[i] = tertiary.Object{ID: id}
	}
	if !reflect.DeepEqual(uniformIDs(objs, 300, 3), uniformIDs(objs, 300, 3)) {
		t.Fatal("the same seed drew different objects")
	}
	if reflect.DeepEqual(uniformIDs(objs, 300, 3), uniformIDs(objs, 300, 4)) {
		t.Fatal("different seeds drew the same objects")
	}
}

func TestTailPercentile(t *testing.T) {
	sorted := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, tc := range []struct {
		n      int
		wantP  float64
		wantV  float64
		wantOK bool
	}{
		{n: 1000, wantP: 99, wantV: 990, wantOK: true}, // exactly 10 beyond p99
		{n: 999, wantP: 90, wantV: 900, wantOK: true},  // 9 beyond p99
		{n: 100, wantP: 90, wantV: 90, wantOK: true},   // 10 beyond p90, 1 beyond p99
		{n: 15, wantP: 0, wantV: 0, wantOK: false},     // 7 beyond p50
	} {
		p, v, ok := tailPercentile(sorted(tc.n), 50, 90, 99)
		if p != tc.wantP || v != tc.wantV || ok != tc.wantOK {
			t.Errorf("n=%d: got p%g=%g ok=%v, want p%g=%g ok=%v", tc.n, p, v, ok, tc.wantP, tc.wantV, tc.wantOK)
		}
		if ok && beyond(tc.n, p) < minTail {
			t.Errorf("n=%d: p%g has %d samples beyond it", tc.n, p, beyond(tc.n, p))
		}
	}
}

// TestClosedLoopHoldsOutstanding checks that between the first
// completion and the last replacement exactly `outstanding` requests
// are in the system at every completion instant.
func TestClosedLoopHoldsOutstanding(t *testing.T) {
	base, err := tertiary.SweepStore(geometry.DLT4000(), 2, 256, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	const outstanding = 24
	ids := uniformIDs(base.Objects(), 300, 5)
	comps, m, err := closedLoop(base, ids, outstanding, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != len(ids) || len(comps) != len(ids) {
		t.Fatalf("served %d of %d", m.Served, len(ids))
	}
	arrivals := make([]float64, len(comps))
	dones := make([]float64, len(comps))
	for i, c := range comps {
		arrivals[i], dones[i] = c.Arrival, c.Done
	}
	sort.Float64s(arrivals)
	sort.Float64s(dones)
	lastArrival := arrivals[len(arrivals)-1]
	checked := 0
	for _, at := range dones {
		if at >= lastArrival {
			break
		}
		in := sort.Search(len(arrivals), func(i int) bool { return arrivals[i] > at }) -
			sort.Search(len(dones), func(i int) bool { return dones[i] > at })
		if in != outstanding {
			t.Fatalf("%d requests in the system at %g s, want %d", in, at, outstanding)
		}
		checked++
	}
	if checked < len(ids)-2*outstanding {
		t.Fatalf("only %d completion instants checked", checked)
	}
}

// TestTracedRunsMatchUntraced runs small instances of every workload
// bare and with the timed Scheduler and Router wrappers: the outcomes,
// completions digest included, must be identical.
func TestTracedRunsMatchUntraced(t *testing.T) {
	tq, err := newTapeQueue(1, nil, tqShape{tapes: 2, objects: 512, outstanding: 48, requests: 1200})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := newCacheRW(1, nil, crShape{tapes: 2, objects: 512, streams: 2, ops: 400})
	if err != nil {
		t.Fatal(err)
	}
	fg, err := newFleetGrid(1, nil, fgShape{tapes: 4, objects: 64, requests: 150})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		inst    instance
		wrapped string // the timed wrapper's span
	}{
		{"tape-queue", tq, "core.Scheduler.Schedule"},
		{"cache-rw", cr, "core.Scheduler.Schedule"},
		{"fleet-grid", fg, "fleet.Router.Score"},
	} {
		bare, err := c.inst.run(nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		tr := newTracer(1 << 10)
		traced, err := c.inst.run(tr)
		if err != nil {
			t.Fatalf("%s traced: %v", c.name, err)
		}
		if !reflect.DeepEqual(bare, traced) {
			t.Errorf("%s: traced outcome (digest %016x) differs from bare (digest %016x)", c.name, traced.digest, bare.digest)
		}
		if len(tr.stack) != 0 || tr.stat(c.wrapped).calls == 0 {
			t.Errorf("%s: %d spans still open, %d %s spans", c.name, len(tr.stack), tr.stat(c.wrapped).calls, c.wrapped)
		}
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer(8)
	tr.begin("fleet.Fleet.Run", -1)
	tr.begin("fleet.Router.Score", 0)
	tr.end()
	tr.begin("obs.SLOEngine.ObserveEvent", 0)
	tr.end()
	tr.end()
	run, score, ev := tr.stat("fleet.Fleet.Run"), tr.stat("fleet.Router.Score"), tr.stat("obs.SLOEngine.ObserveEvent")
	if run.self != run.incl-score.incl-ev.incl {
		t.Errorf("self %v != inclusive %v minus children %v and %v", run.self, run.incl, score.incl, ev.incl)
	}
	if l := tr.layer("fleet"); l.incl != run.incl || l.self != run.self+score.self {
		t.Errorf("fleet layer %+v, want incl %v self %v", l, run.incl, run.self+score.self)
	}
	if tr.spans[1].Parent != tr.spans[0].ID || tr.spans[2].Parent != tr.spans[0].ID {
		t.Errorf("parents %+v", tr.spans)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "tape-queue", "--trace", "2"},
		{"--workload", "tape-queue", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("%q: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// TestResultLine runs the cheapest workload briefly in both modes and
// checks the final JSON line against BENCHMARK.json: exactly the
// declared metrics, with their declared units.
func TestResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	t.Setenv("CARGO_TARGET_DIR", t.TempDir()) // the traced run's span dump
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for trace, want := range map[string][]decl{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var out, errb bytes.Buffer
		args := []string{"--workload", "tape-queue", "--seconds", "0.05", "--trace", trace}
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("trace %s: result %+v", trace, res)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics printed, %d declared", trace, len(res.Metrics), len(want))
		}
		for _, d := range want {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("trace %s: metric %s printed as %+v, declared unit %q", trace, d.Name, m, d.Unit)
			}
			if trace == "0" && !(m.Value > 0) {
				t.Errorf("end-to-end metric %s = %g", d.Name, m.Value)
			}
		}
	}
}
