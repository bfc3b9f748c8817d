// Command paper regenerates the figures and tables of the paper from
// the emulated DLT4000: the locate-time sawtooth (Figure 1), the
// locate-model accuracy (Section 3), the simulation study (Figures
// 4-7), the validation and sensitivity experiments (Figures 8-10) and
// the Section 8 retrieval rates.
//
//	paper -fig 1 -tracks 0:6 -step 97  # Figure 1: locate and rewind from segment 0
//	paper -fig 1 -keypoints            # the key point table behind it
//	paper -fig 4                       # Figure 4: mean s/locate, random start
//	paper -fig 5 -plot                 # Figure 5 (BOT start) as an ASCII chart
//	paper -fig 6 -workers 1            # Figure 6: CPU s per schedule
//	paper -fig 7 -alg SLTF             # Figure 7: utilization curves
//	paper -fig sec3                    # Section 3: locate-model accuracy
//	paper -fig 8                       # Figure 8: estimated vs measured, LOSS
//	paper -fig 9                       # Figure 9: the same with the wrong key points
//	paper -fig 10                      # Figure 10: systematically perturbed model
//	paper -fig sec8                    # Section 8 rates vs the paper
//	paper -fig 4 -divisor 1            # full paper trial counts (slow)
//
// Trial counts are the paper's divided by -divisor, so a figure
// regenerates in seconds. results/MANIFEST holds the flags each
// committed file was made with. A flag the chosen figure does not read
// is an error, as is a count below its minimum: nothing is clamped.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strconv"
	"strings"

	"serpentine/internal/cli"
	"serpentine/internal/core"
	"serpentine/internal/drive"
	"serpentine/internal/geometry"
	"serpentine/internal/locate"
	"serpentine/internal/sim"
	"serpentine/internal/textplot"
)

// options holds every flag; each figure reads only those it lists.
type options struct {
	fig                                         string
	serial, tapeB, seed                         int64
	divisor, optMax, workers, trials, src, step int
	algs, alg, lengths, targets, tracks         string
	stddev, plot, keypoints                     bool
}

// figure is one paper result: its -fig name, the flags it reads
// besides -fig, the flag defaults it overrides, and its writer.
type figure struct {
	name     string
	flags    string
	defaults map[string]string
	write    func(w io.Writer, o *options) error
}

const studyFlags = "serial seed divisor algs lengths optmax workers"

// validation is the seed the paper's validation experiments share.
var validation = map[string]string{"seed": "9001"}

var figures = []figure{
	{"1", "serial src step tracks keypoints plot", nil, writeFig1},
	{"4", studyFlags + " stddev plot", nil, perLocate(sim.RandomStart)},
	{"5", studyFlags + " stddev plot", nil, perLocate(sim.BOTStart)},
	{"6", studyFlags, nil, writeFig6},
	{"7", "serial seed divisor workers alg targets", nil, writeFig7},
	{"8", "serial seed trials", validation, writeValidation},
	{"9", "serial tapeB seed trials", validation, writeValidation},
	{"10", "serial seed divisor", map[string]string{"seed": "9001", "divisor": "2000"}, writeFig10},
	{"sec3", "serial tapeB seed", validation, writeSec3},
	{"sec8", studyFlags, nil, writeSec8},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("paper: ")
	w := bufio.NewWriter(os.Stdout)
	err := run(os.Args[1:], w)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		log.Fatal(err)
	}
}

// run parses args, rejects any value it would otherwise have to
// reinterpret, and writes the chosen figure to w.
func run(args []string, w io.Writer) error {
	var o options
	fs := flag.NewFlagSet("paper", flag.ContinueOnError)
	fs.StringVar(&o.fig, "fig", "", "result to regenerate: "+figureNames())
	fs.Int64Var(&o.serial, "serial", 1, "cartridge serial (sec3, 8-10: the executing tape A)")
	fs.Int64Var(&o.tapeB, "tapeB", 2, "serial of the other cartridge (sec3) or of the wrong key points (9)")
	fs.Int64Var(&o.seed, "seed", 12345, "experiment seed; sec3 and 8-10 default to 9001")
	fs.IntVar(&o.divisor, "divisor", 500, "divide the paper's trial counts by this; 10 defaults to 2000")
	fs.StringVar(&o.algs, "algs", "READ,FIFO,OPT,SORT,SLTF,SCAN,WEAVE,LOSS", "comma-separated algorithms (4-6, sec8)")
	fs.StringVar(&o.alg, "alg", "LOSS", "scheduling algorithm the utilization curves assume (7)")
	fs.StringVar(&o.lengths, "lengths", "", "comma-separated schedule lengths (default: paper grid)")
	fs.IntVar(&o.optMax, "optmax", 12, "largest batch handed to OPT")
	fs.IntVar(&o.workers, "workers", 0, "parallel workers (0 = all cores; use 1 for Figure 6)")
	fs.IntVar(&o.trials, "trials", 4, "schedules per length (8, 9)")
	fs.StringVar(&o.targets, "targets", "", "comma-separated utilization fractions (default 0.25,0.33,0.5,0.75,0.9)")
	fs.BoolVar(&o.stddev, "stddev", false, "also print the total-time standard deviation table (4, 5)")
	fs.BoolVar(&o.plot, "plot", false, "render an ASCII chart instead of the table (1, 4, 5)")
	fs.IntVar(&o.src, "src", 0, "source segment the locates start from (1)")
	fs.IntVar(&o.step, "step", 701, "sample every STEP segments (1)")
	fs.StringVar(&o.tracks, "tracks", "", "restrict to track range LO:HI, inclusive:exclusive (1)")
	fs.BoolVar(&o.keypoints, "keypoints", false, "print the key point table instead of the curve (1)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	i := slices.IndexFunc(figures, func(f figure) bool { return f.name == o.fig })
	if i < 0 {
		return fmt.Errorf("unknown -fig %q, want one of %s", o.fig, figureNames())
	}
	fig := figures[i]
	set := map[string]bool{}
	var stray error
	fs.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		if f.Name != "fig" && stray == nil && !slices.Contains(strings.Fields(fig.flags), f.Name) {
			stray = fmt.Errorf("-%s does not apply to -fig %s", f.Name, o.fig)
		}
	})
	if stray != nil {
		return stray
	}
	for name, v := range fig.defaults {
		if !set[name] {
			if err := fs.Set(name, v); err != nil {
				return err
			}
		}
	}
	for _, c := range []struct {
		name     string
		val, min int
	}{{"divisor", o.divisor, 1}, {"trials", o.trials, 1}, {"step", o.step, 1}, {"optmax", o.optMax, 1}, {"workers", o.workers, 0}} {
		if c.val < c.min {
			return fmt.Errorf("-%s %d, want at least %d", c.name, c.val, c.min)
		}
	}
	return fig.write(w, &o)
}

func figureNames() string {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	return strings.Join(names, ", ")
}

func (o *options) cartridge() (*geometry.Tape, *locate.Model, error) {
	cart, err := locate.Load(geometry.DLT4000(), o.serial)
	if err != nil {
		return nil, nil, err
	}
	return cart.Tape(), cart.Model(), nil
}

// writeFig1 prints the locate time from -src to destinations across
// the tape with the rewind time from each: the sawtooth whose dips
// define the key points. Columns: destination segment, locate
// seconds, rewind seconds, track, physical section and the locate
// model's case number.
func writeFig1(w io.Writer, o *options) error {
	tape, model, err := o.cartridge()
	if err != nil {
		return err
	}
	if o.keypoints {
		kp := tape.KeyPoints()
		fmt.Fprintf(w, "# key points of %s (reading-order section start segments)\n", tape)
		for t, bounds := range kp.Bound {
			fmt.Fprintf(w, "track %2d (%s):", t, kp.Params.TrackDirection(t))
			for _, b := range bounds {
				fmt.Fprintf(w, " %d", b)
			}
			fmt.Fprintln(w)
		}
		return nil
	}

	lo, hi := 0, tape.Segments()
	if o.tracks != "" {
		loS, hiS, _ := strings.Cut(o.tracks, ":")
		tLo, err1 := strconv.Atoi(loS)
		tHi, err2 := strconv.Atoi(hiS)
		if err1 != nil || err2 != nil || tLo < 0 || tHi > tape.Params().Tracks || tLo >= tHi {
			return fmt.Errorf("bad -tracks %q, want LO:HI with 0 <= LO < HI <= %d", o.tracks, tape.Params().Tracks)
		}
		lo = tape.View().Track(tLo).StartLBN()
		hi = tape.View().Track(tHi - 1).EndLBN()
	}
	if o.src < 0 || o.src >= tape.Segments() {
		return fmt.Errorf("source segment %d out of range [0,%d)", o.src, tape.Segments())
	}

	if o.plot {
		locateS := textplot.Series{Name: "locate", Mark: '*'}
		rewindS := textplot.Series{Name: "rewind", Mark: '.'}
		for dst := lo; dst < hi; dst += o.step {
			locateS.X = append(locateS.X, float64(dst))
			locateS.Y = append(locateS.Y, model.LocateTime(o.src, dst))
			rewindS.X = append(rewindS.X, float64(dst))
			rewindS.Y = append(rewindS.Y, model.RewindTime(dst))
		}
		p := textplot.Plot{
			Title:   fmt.Sprintf("Figure 1: locate time from segment %d (%s)", o.src, tape),
			XLabel:  "destination segment",
			YLabel:  "seconds",
			Width:   100,
			Height:  24,
			Connect: true,
			Series:  []textplot.Series{locateS, rewindS},
		}
		return p.Render(w)
	}

	fmt.Fprintf(w, "# %s, locate from segment %d\n", tape, o.src)
	fmt.Fprintf(w, "%10s %10s %10s %6s %8s %6s\n", "segment", "locate_s", "rewind_s", "track", "section", "case")
	for dst := lo; dst < hi; dst += o.step {
		pl := tape.View().Place(dst)
		fmt.Fprintf(w, "%10d %10.3f %10.3f %6d %8d %6d\n",
			dst,
			model.LocateTime(o.src, dst),
			model.RewindTime(dst),
			pl.Track, pl.PhysSection,
			int(model.Classify(o.src, dst)))
	}
	return nil
}

// study runs the simulation of the paper's Figure 3 with the given
// schedulers. Host wall time goes to stderr: the tables are committed
// figures and must not vary from run to run.
func (o *options) study(start sim.StartMode, schedulers []core.Scheduler) (*sim.Result, *geometry.Tape, error) {
	tape, model, err := o.cartridge()
	if err != nil {
		return nil, nil, err
	}
	lengths, err := cli.Ints(o.lengths, 1)
	if err != nil {
		return nil, nil, fmt.Errorf("bad -lengths: %v", err)
	}
	res, err := sim.Run(sim.Config{
		Model:      model,
		Schedulers: schedulers,
		Lengths:    lengths,
		Trials:     sim.ScaledTrials(o.divisor, 8),
		OptMax:     o.optMax,
		Start:      start,
		Seed:       o.seed,
		Workers:    o.workers,
	})
	if err != nil {
		return nil, nil, err
	}
	log.Printf("elapsed %s", res.Elapsed.Round(1e6))
	return res, tape, nil
}

// schedStudy is study over the -algs schedulers; it writes the header
// the Figure 4-6 and Section 8 tables share.
func (o *options) schedStudy(w io.Writer, start sim.StartMode) (*sim.Result, error) {
	var schedulers []core.Scheduler
	for _, name := range strings.Split(o.algs, ",") {
		s, err := core.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		schedulers = append(schedulers, s)
	}
	res, tape, err := o.study(start, schedulers)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "# %s, seed %d, trials/%d\n", tape, o.seed, o.divisor)
	return res, nil
}

// perLocate writes Figure 4 or 5: mean seconds per locate by schedule
// length, as a table or a log-x chart.
func perLocate(start sim.StartMode) func(io.Writer, *options) error {
	return func(w io.Writer, o *options) error {
		res, err := o.schedStudy(w, start)
		if err != nil {
			return err
		}
		if o.plot {
			return plotPerLocate(w, res, o.fig)
		}
		if err := res.WritePerLocateTable(w); err != nil {
			return err
		}
		if o.stddev {
			fmt.Fprintln(w)
			return res.WriteStdDevTable(w)
		}
		return nil
	}
}

func plotPerLocate(w io.Writer, res *sim.Result, fig string) error {
	taken := make(map[byte]bool)
	fallback := []byte("123456789#@%&")
	var series []textplot.Series
	for _, name := range res.AlgNames() {
		mark := name[0]
		// SORT/SLTF/SCAN collide on 'S': use the second letter, then
		// arbitrary fallbacks.
		if taken[mark] && len(name) > 1 {
			mark = name[1]
		}
		for i := 0; taken[mark] && i < len(fallback); i++ {
			mark = fallback[i]
		}
		taken[mark] = true
		s := textplot.Series{Name: name, Mark: mark}
		for _, lr := range res.Lengths {
			a := lr.Alg[name]
			if a == nil || a.Schedules == 0 {
				continue
			}
			s.X = append(s.X, float64(lr.N))
			s.Y = append(s.Y, a.PerLocate.Mean())
		}
		if len(s.X) > 0 {
			series = append(series, s)
		}
	}
	pl := textplot.Plot{
		Title:   fmt.Sprintf("mean seconds per locate, %s start (cf. paper Figure %s)", res.Config.Start, fig),
		XLabel:  "schedule length (log)",
		YLabel:  "s/locate",
		Width:   90,
		Height:  24,
		LogX:    true,
		Connect: true,
		Series:  series,
	}
	return pl.Render(w)
}

// writeFig6 writes the CPU seconds each algorithm spends generating
// one schedule; run it with -workers 1 for clean timings.
func writeFig6(w io.Writer, o *options) error {
	res, err := o.schedStudy(w, sim.RandomStart)
	if err != nil {
		return err
	}
	return res.WriteCPUTable(w)
}

// writeSec8 compares the random retrieval rates with those the paper
// quotes in Section 8.
func writeSec8(w io.Writer, o *options) error {
	res, err := o.schedStudy(w, sim.RandomStart)
	if err != nil {
		return err
	}
	rows, err := sim.Summary(res)
	if err != nil {
		return err
	}
	return sim.WriteSummary(w, rows)
}

// writeFig7 writes, for each schedule length, the per-request
// transfer size at which the drive reaches each target fraction of
// its sequential bandwidth.
func writeFig7(w io.Writer, o *options) error {
	sched, err := core.ByName(o.alg)
	if err != nil {
		return err
	}
	targets, err := cli.Floats(o.targets)
	if err != nil {
		return fmt.Errorf("bad -targets: %v", err)
	}
	res, tape, err := o.study(sim.RandomStart, []core.Scheduler{sched})
	if err != nil {
		return err
	}
	rate := tape.Params().TransferRateBytesPerSec()
	curves, err := sim.UtilizationCurves(res, sched.Name(), rate, targets)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# %s, %s scheduling, %.2f MB/s sequential rate\n", tape, sched.Name(), rate/1e6)
	return sim.WriteUtilization(w, curves)
}

// cartridges loads the two tapes of the validation experiments. Tape
// A executes every schedule. It is the model-development tape: the
// paper tuned the model's constants on it, which a zero personality
// represents. Tape B is a different cartridge of the stock profile.
func (o *options) cartridges() (a, b *locate.Cartridge, err error) {
	profile := geometry.DLT4000()
	profile.PersonalityFrac = 0
	if a, err = locate.Load(profile, o.serial); err != nil {
		return nil, nil, err
	}
	b, err = locate.Load(geometry.DLT4000(), o.tapeB)
	return a, b, err
}

// writeSec3 writes the raw locate-model accuracy: 3000 locates on the
// model-development tape, 1000 on a different cartridge.
func writeSec3(w io.Writer, o *options) error {
	a, b, err := o.cartridges()
	if err != nil {
		return err
	}
	accA, err := sim.LocateAccuracy(drive.New(a.Tape()), a.Model(), 3000, o.seed)
	if err != nil {
		return err
	}
	accB, err := sim.LocateAccuracy(drive.New(b.Tape()), b.Model(), 1000, o.seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# raw locate-time model accuracy (Section 3)\n")
	fmt.Fprintf(w, "model-development tape: %d/%d locates err > 2s (paper: 7/3000), mean |err| %.3fs, max %.2fs\n",
		accA.Over2s, accA.Locates, accA.MeanAbsErr, accA.MaxAbsErr)
	fmt.Fprintf(w, "different tape:         %d/%d locates err > 2s (paper: 24/1000), mean |err| %.3fs, max %.2fs\n",
		accB.Over2s, accB.Locates, accB.MeanAbsErr, accB.MaxAbsErr)
	return nil
}

// writeValidation writes Figure 8 (LOSS schedules executed on tape A,
// estimated with its own key points) or Figure 9 (estimated with tape
// B's: the paper's "disastrous" ~20% case).
func writeValidation(w io.Writer, o *options) error {
	a, b, err := o.cartridges()
	if err != nil {
		return err
	}
	model, header := a.Model(), fmt.Sprintf("# Figure 8: LOSS schedules on %s, correct key points\n", a.Tape())
	if o.fig == "9" {
		model, header = b.Model(), fmt.Sprintf("# Figure 9: LOSS schedules on %s using key points of %s\n", a.Tape(), b.Tape())
	}
	points, err := sim.Validate(sim.ValidationConfig{
		Drive:  drive.New(a.Tape()),
		Model:  model,
		Trials: o.trials,
		Seed:   o.seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprint(w, header)
	return sim.WriteValidation(w, points)
}

// writeFig10 writes the execution-time increase of LOSS schedules when
// the locate model is systematically perturbed by E = 1, 2, 3, 5 and
// 10 seconds.
func writeFig10(w io.Writer, o *options) error {
	a, _, err := o.cartridges()
	if err != nil {
		return err
	}
	points, err := sim.PerturbStudy(sim.PerturbConfig{
		Model:  a.Model(),
		Trials: sim.ScaledTrials(o.divisor, 4),
		Start:  sim.BOTStart,
		Seed:   o.seed,
	})
	if err != nil {
		return err
	}
	return sim.WritePerturb(w, points)
}
