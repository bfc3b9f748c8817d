// Command libsim simulates an online tertiary storage system — a
// robot library of DLT4000 cartridges serving a Poisson stream of
// object reads — and sweeps the batching limit to expose the central
// online trade-off: bigger batches raise throughput (the paper's
// scheduling gains) while making early arrivals wait longer.
//
//	libsim                              # default: 4 tapes, 2 drives
//	libsim -rate 120 -requests 2000     # 120 requests/hour offered load
//	libsim -limits 1,8,32,128 -plot
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"serpentine/internal/geometry"
	"serpentine/internal/tertiary"
	"serpentine/internal/textplot"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("libsim: ")
	var (
		tapes    = flag.Int("tapes", 4, "cartridges in the library")
		drives   = flag.Int("drives", 2, "transports")
		objects  = flag.Int("objects", 2048, "cataloged objects per cartridge")
		objSegs  = flag.Int("objsegs", 32, "segments per object (32 = 1 MB)")
		requests = flag.Int("requests", 1000, "requests in the stream")
		rate     = flag.Float64("rate", 180, "offered load, requests per hour")
		seed     = flag.Int64("seed", 11, "stream seed")
		limits   = flag.String("limits", "1,4,16,64,256,0", "comma-separated batch limits (0 = unlimited)")
		plot     = flag.Bool("plot", false, "render mean latency vs batch limit as an ASCII chart")
	)
	flag.Parse()

	profile := geometry.DLT4000()
	base, err := tertiary.SweepStore(profile, *tapes, *objects, *objSegs, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	stream, err := tertiary.SweepStream(*rate, *requests, *seed, *tapes, *objects, 0)
	if err != nil {
		log.Fatal(err)
	}

	var batchLimits []int
	for _, f := range strings.Split(*limits, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 0 {
			log.Fatalf("bad batch limit %q", f)
		}
		batchLimits = append(batchLimits, n)
	}

	// Serve the same stream once per batch limit; each run clones the
	// shared store with its own limit, so the runs are independent.
	type point struct {
		BatchLimit int
		Metrics    tertiary.Metrics
	}
	points := make([]point, 0, len(batchLimits))
	for _, limit := range batchLimits {
		lib := base.Clone(tertiary.Config{Drives: *drives, BatchLimit: limit})
		_, m, err := lib.Run(stream)
		if err != nil {
			log.Fatal(err)
		}
		points = append(points, point{BatchLimit: limit, Metrics: m})
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "# %d tapes x %d objects (%d MB each), %d drives, %d requests at %.0f/hour\n",
		*tapes, *objects, int64(*objSegs)*profile.SegmentBytes>>20, *drives, *requests, *rate)

	if *plot {
		var lat, thru textplot.Series
		lat.Name, lat.Mark = "mean latency (min)", 'L'
		thru.Name, thru.Mark = "retrievals/hour", 'T'
		for _, p := range points {
			x := float64(p.BatchLimit)
			if p.BatchLimit == 0 {
				x = 2 * float64(batchLimits[len(batchLimits)-2]+1)
			}
			lat.X = append(lat.X, x)
			lat.Y = append(lat.Y, p.Metrics.MeanLatency/60)
			thru.X = append(thru.X, x)
			thru.Y = append(thru.Y, p.Metrics.IOsPerHour())
		}
		pl := textplot.Plot{
			Title:  "online trade-off: batch limit vs latency and throughput",
			XLabel: "batch limit (log)", Width: 80, Height: 20,
			LogX: true, Connect: true,
			Series: []textplot.Series{lat, thru},
		}
		if err := pl.Render(w); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Fprintf(w, "%10s %12s %14s %14s %8s %10s %12s\n",
		"batch", "IO/hour", "mean lat (s)", "max lat (s)", "mounts", "busy (h)", "head passes")
	for _, p := range points {
		m := p.Metrics
		label := strconv.Itoa(p.BatchLimit)
		if p.BatchLimit == 0 {
			label = "unlimited"
		}
		fmt.Fprintf(w, "%10s %12.1f %14.0f %14.0f %8d %10.1f %12.0f\n",
			label, m.IOsPerHour(), m.MeanLatency, m.MaxLatency, m.Mounts, m.DriveBusySec/3600, m.HeadPasses)
	}
}
