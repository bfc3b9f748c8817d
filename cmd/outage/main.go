// Command outage runs the availability experiment: the library served
// under component-lifecycle faults — drives dying and being repaired,
// the robot arm stalling, cartridges destroyed or developing bad
// spots — across a grid of (drive MTTF, drive MTTR, replication
// factor) cells. Every cell at one (MTTF, MTTR) coordinate replays
// the same workload and the same failure history, so the replica
// column isolates what redundancy buys: lost-cartridge failures at
// R=1 turn into remote-replica reads at R=2.
//
//	outage
//	outage -mttf 0,3600 -mttr 600 -replicas 1,2,3
//	outage -loss 0.01 -requests 800 -seed 7 -workers 4
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

	"serpentine/internal/cli"
	"serpentine/internal/tertiary"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("outage: ")
	var (
		mttfList = flag.String("mttf", "", "comma-separated drive MTTFs in seconds, 0 = never fails (default 0,14400,3600)")
		mttrList = flag.String("mttr", "", "comma-separated drive MTTRs in seconds (default 600,1800)")
		repList  = flag.String("replicas", "", "comma-separated replication factors (default 1,2)")
		loss     = flag.Float64("loss", 0.02, "cartridge-loss probability per mount attempt")
		badspot  = flag.Float64("badspot", 0.05, "fraction of cartridges with a permanent bad-spot region")
		stall    = flag.Float64("stall", 0.02, "robot-stall probability per exchange")
		rate     = flag.Float64("rate", 120, "arrival rate per hour")
		drives   = flag.Int("drives", 2, "transport pool size")
		batch    = flag.Int("batch", 16, "batch limit per mount")
		requests = flag.Int("requests", 400, "requests per cell")
		tapes    = flag.Int("tapes", 4, "cartridge count")
		objects  = flag.Int("objects", 64, "objects per cartridge")
		deadline = flag.Float64("deadline", 0, "per-request latency budget in seconds, 0 = none")
		seed     = flag.Int64("seed", 1, "workload and failure seed")
		workers  = flag.Int("workers", 0, "concurrent cells (0 = GOMAXPROCS)")
	)
	flag.Parse()

	cfg := tertiary.OutageConfig{
		TapeCount:         *tapes,
		Objects:           *objects,
		CartridgeLossRate: *loss,
		BadSpotRate:       *badspot,
		RobotStallRate:    *stall,
		RatePerHour:       *rate,
		Drives:            *drives,
		BatchLimit:        *batch,
		Requests:          *requests,
		DeadlineSec:       *deadline,
		Seed:              *seed,
		Workers:           *workers,
	}
	var err error
	if cfg.MTTFsSec, err = cli.Floats(*mttfList); err != nil {
		log.Fatalf("-mttf: %v", err)
	}
	if cfg.MTTRsSec, err = cli.Floats(*mttrList); err != nil {
		log.Fatalf("-mttr: %v", err)
	}
	if cfg.Replicas, err = cli.Ints(*repList, 1); err != nil {
		log.Fatalf("-replicas: %v", err)
	}

	cells, err := tertiary.OutageSweep(cfg)
	if err != nil {
		log.Fatal(err)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "# outage: %d requests/cell at %g/h, %d drives, batch %d, %d tapes × %d objects\n",
		*requests, *rate, *drives, *batch, *tapes, *objects)
	fmt.Fprintf(w, "# lifecycle: cartridge loss %g/mount, bad-spot %g/cartridge, robot stall %g/exchange, seed %d\n\n",
		*loss, *badspot, *stall, *seed)
	if err := tertiary.WriteAvailability(w, cells); err != nil {
		log.Fatal(err)
	}
}
