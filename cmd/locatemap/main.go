// Command locatemap regenerates the data behind Figure 1 of the
// paper: the locate time from a source segment (segment 0 by default)
// to destinations across the tape, together with the rewind time from
// each destination — the sawtooth curve whose dips define the tape's
// key points.
//
//	locatemap -serial 1 -step 500 > fig1.dat
//	locatemap -tracks 0:4 -step 100        # zoom on the first tracks
//
// Output is a whitespace-separated table: destination segment, locate
// seconds, rewind seconds, track, physical section, and the paper's
// locate-model case number.
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
	"serpentine/internal/locate"
	"serpentine/internal/textplot"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("locatemap: ")
	var (
		serial  = flag.Int64("serial", 1, "cartridge serial number to synthesize")
		src     = flag.Int("src", 0, "source segment the locates start from")
		step    = flag.Int("step", 701, "sample every STEP segments")
		tracks  = flag.String("tracks", "", "restrict to track range LO:HI (inclusive:exclusive)")
		keysOut = flag.Bool("keypoints", false, "print the tape's key point table instead of the curve")
		plot    = flag.Bool("plot", false, "render an ASCII chart instead of the table")
	)
	flag.Parse()

	cart, err := locate.Load(geometry.DLT4000(), *serial)
	if err != nil {
		log.Fatal(err)
	}
	tape, model := cart.Tape(), cart.Model()
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()

	if *keysOut {
		printKeyPoints(w, tape)
		return
	}

	lo, hi := 0, tape.Segments()
	if *tracks != "" {
		parts := strings.SplitN(*tracks, ":", 2)
		if len(parts) != 2 {
			log.Fatalf("bad -tracks %q, want LO:HI", *tracks)
		}
		tLo, err1 := strconv.Atoi(parts[0])
		tHi, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil || tLo < 0 || tHi > tape.Params().Tracks || tLo >= tHi {
			log.Fatalf("bad -tracks %q", *tracks)
		}
		lo = tape.View().Track(tLo).StartLBN()
		hi = tape.View().Track(tHi - 1).EndLBN()
	}
	if *src < 0 || *src >= tape.Segments() {
		log.Fatalf("source segment %d out of range [0,%d)", *src, tape.Segments())
	}
	if *step < 1 {
		*step = 1
	}

	if *plot {
		var locateS, rewindS textplot.Series
		locateS.Name, locateS.Mark = "locate", '*'
		rewindS.Name, rewindS.Mark = "rewind", '.'
		for dst := lo; dst < hi; dst += *step {
			locateS.X = append(locateS.X, float64(dst))
			locateS.Y = append(locateS.Y, model.LocateTime(*src, dst))
			rewindS.X = append(rewindS.X, float64(dst))
			rewindS.Y = append(rewindS.Y, model.RewindTime(dst))
		}
		p := textplot.Plot{
			Title:   fmt.Sprintf("Figure 1: locate time from segment %d (%s)", *src, tape),
			XLabel:  "destination segment",
			YLabel:  "seconds",
			Width:   100,
			Height:  24,
			Connect: true,
			Series:  []textplot.Series{locateS, rewindS},
		}
		if err := p.Render(w); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Fprintf(w, "# %s, locate from segment %d\n", tape, *src)
	fmt.Fprintf(w, "%10s %10s %10s %6s %8s %6s\n", "segment", "locate_s", "rewind_s", "track", "section", "case")
	for dst := lo; dst < hi; dst += *step {
		pl := tape.View().Place(dst)
		fmt.Fprintf(w, "%10d %10.3f %10.3f %6d %8d %6d\n",
			dst,
			model.LocateTime(*src, dst),
			model.RewindTime(dst),
			pl.Track, pl.PhysSection,
			int(model.Classify(*src, dst)))
	}
}

func printKeyPoints(w *bufio.Writer, tape *geometry.Tape) {
	kp := tape.KeyPoints()
	fmt.Fprintf(w, "# key points of %s (reading-order section start segments)\n", tape)
	for t, bounds := range kp.Bound {
		fmt.Fprintf(w, "track %2d (%s):", t, kp.Params.TrackDirection(t))
		for _, b := range bounds {
			fmt.Fprintf(w, " %d", b)
		}
		fmt.Fprintln(w)
	}
}
