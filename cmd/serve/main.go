// Command serve runs the online-serving experiment: Poisson request
// streams served off the emulated drive under each batching policy
// and scheduler, sweeping the arrival rate. It reports sojourn-time
// percentiles (arrival to completion), mean service time, realized
// batch size, delivered throughput and drive utilization per cell —
// the open-queue analogue of the paper's batch-size study.
//
//	serve
//	serve -rates 30,60,120,240 -n 500
//	serve -policies quiesce,fixed-window -window 300 -algs LOSS,SLTF
//	serve -metrics prom
//	serve -listen :8080              # /metrics /statusz /tracez /debug/pprof
//
// Runs are fully deterministic: the same flags produce the same
// output at any worker count.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"serpentine/internal/cli"
	"serpentine/internal/core"
	"serpentine/internal/fault"
	"serpentine/internal/obs"
	"serpentine/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")
	var (
		serial    = flag.Int64("serial", 1, "cartridge serial number")
		rateList  = flag.String("rates", "30,60,120", "comma-separated arrival rates (requests/hour)")
		policies  = flag.String("policies", "", "comma-separated batching policies (default: all three)")
		algs      = flag.String("algs", "", "comma-separated schedulers (default: SORT,SLTF,SCAN,WEAVE,LOSS)")
		n         = flag.Int("n", 300, "requests per cell")
		window    = flag.Float64("window", 600, "fixed-window batch period (seconds)")
		queueCap  = flag.Int("queue", 1024, "admission queue capacity")
		maxBatch  = flag.Int("maxbatch", 0, "cap on cut batch size (0 = unbounded)")
		readLen   = flag.Int("readlen", 1, "segments transferred per request")
		seed      = flag.Int64("seed", 1, "arrival-stream seed")
		workers   = flag.Int("workers", 0, "concurrent cells (0 = GOMAXPROCS)")
		metrics   = flag.String("metrics", "", "append the merged metrics dump: 'prom' or 'json'")
		listen    = flag.String("listen", "", "serve live introspection (/metrics /statusz /tracez /debug/pprof) on this address and block after the run")
		spanCap   = flag.Int("spancap", 65536, "span store capacity for -listen tracing")
		transient = flag.Float64("transient", 0, "transient read-error rate (per read; 0 disables faults)")
		overshoot = flag.Float64("overshoot", 0, "locate-overshoot rate (per locate)")
		lost      = flag.Float64("lost", 0, "lost-servo-position rate (per locate)")
		media     = flag.Float64("media", 0, "fraction of media-bad segments")
	)
	flag.Parse()

	cfg := server.SweepConfig{
		Serial:    *serial,
		Requests:  *n,
		WindowSec: *window,
		QueueCap:  *queueCap,
		MaxBatch:  *maxBatch,
		ReadLen:   *readLen,
		Seed:      *seed,
		Workers:   *workers,
		Faults: fault.Config{
			TransientRate: *transient,
			OvershootRate: *overshoot,
			LostRate:      *lost,
			MediaRate:     *media,
		},
	}
	rates, err := cli.Floats(*rateList)
	if err != nil {
		log.Fatal(err)
	}
	cfg.RatesPerHour = rates
	if *policies != "" {
		for _, name := range strings.Split(*policies, ",") {
			p, err := server.PolicyByName(strings.TrimSpace(name))
			if err != nil {
				log.Fatal(err)
			}
			cfg.Policies = append(cfg.Policies, p)
		}
	}
	if *algs != "" {
		for _, name := range strings.Split(*algs, ",") {
			s, err := core.ByName(strings.TrimSpace(name))
			if err != nil {
				log.Fatal(err)
			}
			cfg.Schedulers = append(cfg.Schedulers, s)
		}
	}
	var reg *obs.Registry
	switch *metrics {
	case "":
	case "prom", "json":
		reg = obs.NewRegistry()
		cfg.Reg = reg
	default:
		log.Fatalf("unknown -metrics format %q (want prom or json)", *metrics)
	}
	var tracer *obs.Tracer
	if *listen != "" {
		// Live introspection wants both halves of the subsystem armed:
		// the merged registry even without -metrics, and a shared span
		// tracer the cells record into as they run. The shared tracer's
		// interleaving follows worker scheduling — it is for watching,
		// not for committed evidence (cmd/trace does that, per cell).
		if reg == nil {
			reg = obs.NewRegistry()
			cfg.Reg = reg
		}
		tracer = obs.NewTracer(*spanCap)
		cfg.Spans = tracer
		addr, err := obs.Serve(*listen, obs.MuxConfig{Reg: reg, Tracer: tracer})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("introspection on http://%s (/metrics /statusz /tracez /debug/pprof)", addr)
	}

	cells, err := server.Sweep(cfg)
	if err != nil {
		log.Fatal(err)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "# serve: %d requests/cell, window %gs, queue %d, seed %d\n\n",
		*n, *window, *queueCap, *seed)
	if err := server.WriteOnline(w, cells); err != nil {
		log.Fatal(err)
	}
	if reg != nil && *metrics != "" {
		fmt.Fprintln(w, "# metrics")
		switch *metrics {
		case "prom":
			err = reg.WriteProm(w)
		case "json":
			err = reg.WriteJSON(w)
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	if *listen != "" {
		w.Flush()
		log.Printf("run complete; still serving introspection (^C to exit)")
		select {}
	}
}
