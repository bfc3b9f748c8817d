// Command perfbench is the repository's benchmark: it runs one named
// workload through the public APIs of the tertiary, hsm and fleet
// layers, checks every output, and prints every metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured
// untraced; with --trace 1 they are the per-layer ones, from a run
// that records one span per timed public call (see README.md).
//
// Usage:
//
//	perfbench --workload tape-queue --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"time"
)

// instance is a workload after set-up: its stores are built and its
// inputs generated. run performs one repetition of the workload's
// fixed work — traced when tr is non-nil — and returns its simulated
// outcome, which is the same on every repetition.
type instance interface {
	run(tr *tracer) (outcome, error)
}

// workload is one named input set.
type workload struct {
	name string
	// limitSec is the read-sojourn limit (virtual seconds) good_frac
	// counts against.
	limitSec float64
	setup    func(seed int64, tr *tracer) (instance, error)
}

var workloads = []workload{
	{"tape-queue", 14400, setupTapeQueue},
	{"fleet-grid", fgLatencyOK, setupFleetGrid},
	{"cache-rw", 1200, setupCacheRW},
}

const (
	// setups is how many times a run sets the workload up; setup_s is
	// their median.
	setups = 3
	// spanKeep bounds the span records kept for the trace file.
	spanKeep = 1 << 16
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: tape-queue, fleet-grid or cache-rw")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "host seconds to measure")
	trace := fs.Int("trace", 0, "1 measures the per-layer metrics in a traced run")
	setupOnly := fs.Bool("setup-only", false, "set up once and print the set-up report (used by the benchmark itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || fs.NArg() > 0 || !(*seconds > 0) || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload tape-queue|fleet-grid|cache-rw, --seconds > 0, --trace 0|1\n")
		return 2
	}
	if *setupOnly {
		var tr *tracer
		if *trace == 1 {
			tr = newTracer(0)
		}
		_, r, err := timeSetup(*w, *seed, tr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: setup: %v\n", w.name, err)
			return 1
		}
		line, err := json.Marshal(r)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		return 0
	}
	res, err := measure(*w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		res.Correct = false
		res.Failed++
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", jerr)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// measure sets the workload up several times, runs one untimed
// reference repetition, then repeats the workload's fixed work for the
// measured duration. Every repetition must reproduce the reference
// outcome exactly.
func measure(w workload, seed int64, dur time.Duration, traced bool, stdout io.Writer) (result, error) {
	res := result{Metrics: make(map[string]metric)}
	var tr *tracer
	if traced {
		tr = newTracer(spanKeep)
	}

	// Set-up, timed `setups` times: first in child processes, then
	// once here. Each child is a fresh process and pays every lazily built
	// per-process cache, as a command's user does; repeating set-up in
	// one process would instead multiply the memory the program's
	// process-lifetime caches keep per generated cartridge. This
	// process's set-up also gives the built stores' live heap.
	var setupS []float64
	setupSpans := make(map[string][]float64)
	add := func(r setupReport) {
		setupS = append(setupS, r.Seconds)
		for n, v := range r.Spans {
			setupSpans[n] = append(setupSpans[n], v)
		}
	}
	for k := 1; k < setups; k++ {
		r, err := setupChild(w.name, seed, traced)
		if err != nil {
			return res, fmt.Errorf("setup %d: %w", k, err)
		}
		add(r)
	}
	inst, r, err := timeSetup(w, seed, tr)
	if err != nil {
		return res, fmt.Errorf("setup: %w", err)
	}
	add(r)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	ref, err := inst.run(nil)
	res.Attempted += ref.offered
	if err != nil {
		return res, fmt.Errorf("reference repetition: %w", err)
	}
	p99, p99v, ok := tailPercentile(ref.sojourns, 50, 90, 99)
	if !ok || p99 != 99 {
		return res, checkf("%d sojourn samples leave fewer than %d beyond p99", len(ref.sojourns), minTail)
	}
	fmt.Fprintf(stdout, "# %s seed %d: digest %016x, %d reads offered, %d served, %d failed, %d rejected, %d shed, %d sojourn samples\n",
		w.name, seed, ref.digest, ref.reads, ref.served, ref.failed, ref.rejected, ref.shed, len(ref.sojourns))

	// Timed repetitions. Untraced, every repetition is timed; traced,
	// untraced and traced repetitions alternate, so the tracing
	// overhead is measured against untraced repetitions of the same run.
	var plain, withTrace []float64
	var before, after runtime.MemStats
	var gcCycles, gcPause float64
	repeat := func(t *tracer) error {
		if t != nil {
			t.begin("bench.rep", -1)
		}
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		o, err := inst.run(t)
		d := time.Since(t0).Seconds()
		runtime.ReadMemStats(&after)
		if t != nil {
			t.end()
		}
		res.Attempted += o.offered
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(o, ref) {
			return checkf("repetition outcome (digest %016x) differs from the reference (digest %016x)", o.digest, ref.digest)
		}
		if t != nil {
			withTrace = append(withTrace, d)
			return nil
		}
		plain = append(plain, d)
		gcCycles += float64(after.NumGC - before.NumGC)
		gcPause += float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9
		return nil
	}
	tr.reset()
	runtime.GC()
	var total runtime.MemStats
	runtime.ReadMemStats(&total)
	allocStart := total.TotalAlloc
	for start := time.Now(); len(plain) < 2 || (traced && len(withTrace) < 2) || time.Since(start) < dur; {
		if err := repeat(nil); err != nil {
			return res, err
		}
		if traced {
			if err := repeat(tr); err != nil {
				return res, err
			}
		}
	}
	runtime.ReadMemStats(&total)

	if !traced {
		rates := make([]float64, len(plain))
		for i, d := range plain {
			rates[i] = float64(ref.offered) / d
		}
		good := 0
		for _, s := range ref.sojourns {
			if s <= w.limitSec {
				good++
			}
		}
		set := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
		set("setup_s", "s", median(setupS))
		set("sim_reqs_per_s", "1/s", median(rates))
		set("alloc_bytes_per_req", "B", float64(total.TotalAlloc-allocStart)/float64(len(plain)*ref.offered))
		set("store_heap_mb", "MiB", heapMB)
		set("sojourn_p50_s", "sim_s", percentile(ref.sojourns, 50))
		set("sojourn_p99_s", "sim_s", p99v)
		set("served_frac", "frac", float64(ref.served)/float64(ref.reads))
		set("ios_per_hour", "1/sim_h", float64(ref.served)/ref.makespan*3600)
		set("good_frac", "frac", float64(good)/float64(ref.reads))
		res.Correct = true
		return res, nil
	}

	res.Metrics = perLayer(tr, ref, setupSpans, withTrace, plain, gcCycles, gcPause)
	printLayers(stdout, tr, len(withTrace), mean(withTrace))
	path := filepath.Join(buildDir(), "perfbench", "spans-"+w.name+"-"+strconv.FormatInt(seed, 10)+".jsonl")
	if err := tr.writeSpans(path); err != nil {
		return res, err
	}
	fmt.Fprintf(stdout, "# %d spans written to %s (%d beyond the cap not kept)\n", len(tr.spans), path, tr.dropped)
	res.Correct = true
	return res, nil
}

// setupSpanNames are the set-up spans reported per layer.
var setupSpanNames = []string{"workload.gen", "fleet.New", "tertiary.SweepStore", "warmup"}

// setupReport is one set-up's host time and, traced, its spans'
// inclusive times by name.
type setupReport struct {
	Seconds float64            `json:"setup_s"`
	Spans   map[string]float64 `json:"spans,omitempty"`
}

// timeSetup sets the workload up once and times it.
func timeSetup(w workload, seed int64, tr *tracer) (instance, setupReport, error) {
	runtime.GC()
	tr.reset()
	t0 := time.Now()
	inst, err := w.setup(seed, tr)
	r := setupReport{Seconds: time.Since(t0).Seconds()}
	if tr != nil {
		r.Spans = make(map[string]float64)
		for _, n := range setupSpanNames {
			r.Spans[n] = tr.stat(n).incl.Seconds()
		}
	}
	return inst, r, err
}

// setupChild times one set-up in a child process running this binary
// with --setup-only, and waits for it to exit.
func setupChild(name string, seed int64, traced bool) (setupReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return setupReport{}, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10), "--trace", trace, "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return setupReport{}, err
	}
	var r setupReport
	if err := json.Unmarshal(out, &r); err != nil {
		return setupReport{}, fmt.Errorf("child set-up report %q: %w", out, err)
	}
	return r, nil
}

// buildDir is where the benchmark writes its build and trace output:
// $CARGO_TARGET_DIR when set (run.py always sets it), else .bench_build.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// perLayer assembles the traced run's metrics: set-up spans (median
// over set-ups), host time per traced repetition by layer, the
// reference outcome's simulated per-layer metrics, the runtime's GC
// work per untraced repetition, and the tracing overhead.
func perLayer(tr *tracer, ref outcome, setupSpans map[string][]float64, traced, plain []float64, gcCycles, gcPause float64) map[string]metric {
	m := make(map[string]metric)
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	n := float64(len(traced))
	perRep := func(d time.Duration) float64 { return d.Seconds() / n }

	set("workload.gen_s", "s", median(setupSpans["workload.gen"]))
	set("fleet.new_s", "s", median(setupSpans["fleet.New"]))
	set("tertiary.new_s", "s", median(setupSpans["tertiary.SweepStore"]))
	set("warmup_s", "s", median(setupSpans["warmup"]))

	sch := tr.stat("core.Scheduler.Schedule")
	set("core.schedule_s", "s", perRep(sch.incl))
	set("core.schedule_calls", "count", float64(sch.calls)/n)
	locPerCall, nsPerLoc := 0.0, 0.0
	if sch.calls > 0 {
		locPerCall = float64(sch.locates) / float64(sch.calls)
	}
	if sch.locates > 0 {
		nsPerLoc = float64(sch.incl.Nanoseconds()) / float64(sch.locates)
	}
	set("core.locates_per_call", "count", locPerCall)
	set("core.ns_per_locate", "ns", nsPerLoc)

	set("tertiary.loop_s", "s", perRep(tr.layer("tertiary").self))
	set("hsm.call_s", "s", perRep(tr.layer("hsm").incl))
	set("fleet.run_s", "s", perRep(tr.stat("fleet.Fleet.Run").incl))
	route := tr.stat("fleet.Router.Score")
	set("fleet.route_s", "s", perRep(route.incl))
	set("fleet.route_calls", "count", float64(route.calls)/n)
	set("obs.slo_observe_s", "s", perRep(tr.stat("obs.SLOEngine.ObserveEvent").incl+tr.stat("obs.SLOEngine.Advance").incl))

	// core's self time is core.schedule_s and tertiary's is
	// tertiary.loop_s; the other layers with spans in the timed phase:
	for _, l := range []string{"bench", "hsm", "fleet", "obs"} {
		set("self."+l+"_s", "s", perRep(tr.layer(l).self))
	}

	units := map[string]string{
		"drive.locate_s_per_req": "sim_s", "drive.transfer_s_per_req": "sim_s", "drive.mount_s_per_req": "sim_s",
		"tertiary.queue_s_per_req": "sim_s", "tertiary.robot_wait_s_per_req": "sim_s", "hsm.flush_s": "sim_s",
		"tertiary.mounts_per_kreq": "1/kreq", "hsm.evictions_per_kreq": "1/kreq",
		"tertiary.drive_util": "frac", "hsm.hit_rate": "frac", "fleet.affinity_frac": "frac", "fleet.cache_hit_rate": "frac",
	}
	for _, name := range simLayerMetrics {
		u := units[name]
		if u == "" {
			u = "count"
		}
		set(name, u, ref.sim[name])
	}

	set("runtime.gc_cycles", "count", gcCycles/float64(len(plain)))
	set("runtime.gc_pause_s", "s", gcPause/float64(len(plain)))
	set("trace.overhead_frac", "frac", median(traced)/median(plain)-1)
	set("trace.spans", "count", float64(tr.spanCount())/n)
	return m
}

// simLayerMetrics are the simulated per-layer metrics every workload
// reports (0 where its layers do no such work).
var simLayerMetrics = []string{
	"drive.locate_s_per_req", "drive.transfer_s_per_req", "drive.mount_s_per_req",
	"tertiary.batches", "tertiary.mounts_per_kreq", "tertiary.queue_s_per_req",
	"tertiary.robot_wait_s_per_req", "tertiary.drive_util", "tertiary.max_queue_depth",
	"sim.retries", "sim.replans", "sim.fallbacks", "tertiary.rescued", "tertiary.replica_reads",
	"hsm.hit_rate", "hsm.evictions_per_kreq", "hsm.writebacks", "hsm.prefetch_installs", "hsm.flush_s",
	"fleet.affinity_frac", "fleet.cross_shard_reads", "fleet.unroutable", "fleet.cache_hit_rate",
	"obs.events", "obs.events_dropped", "obs.alerts", "sojourn.samples",
}
