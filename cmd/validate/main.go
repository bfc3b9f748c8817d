// Command validate regenerates the paper's validation and sensitivity
// experiments against the emulated DLT4000:
//
//	validate -fig 3    Section 3: raw locate-time model accuracy
//	                   (3000 locates on the model-development tape,
//	                   1000 on a different cartridge)
//	validate -fig 8    Figure 8: percent error between estimated and
//	                   measured execution times of LOSS schedules
//	validate -fig 9    Figure 9: the same with the WRONG tape's key
//	                   points — the paper's "disastrous" ~20% case
//	validate -fig 10   Figure 10: execution-time increase when the
//	                   locate model is systematically perturbed by
//	                   E = 1, 2, 3, 5, 10 seconds
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"

	"serpentine/internal/drive"
	"serpentine/internal/geometry"
	"serpentine/internal/locate"
	"serpentine/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("validate: ")
	var (
		fig     = flag.Int("fig", 8, "experiment: 3, 8, 9 or 10")
		serialA = flag.Int64("tapeA", 1, "serial of the executing cartridge (tape A)")
		serialB = flag.Int64("tapeB", 2, "serial of the wrong-key-points cartridge (tape B)")
		trials  = flag.Int("trials", 4, "schedules per length (figures 8/9)")
		divisor = flag.Int("divisor", 2000, "trial divisor for figure 10")
		seed    = flag.Int64("seed", 9001, "experiment seed")
	)
	flag.Parse()

	// Tape A is the model-development cartridge: the paper tuned the
	// model's constants on it, which a zero personality represents.
	profileA := geometry.DLT4000()
	profileA.PersonalityFrac = 0
	cartA, err := locate.Load(profileA, *serialA)
	if err != nil {
		log.Fatal(err)
	}
	cartB, err := locate.Load(geometry.DLT4000(), *serialB)
	if err != nil {
		log.Fatal(err)
	}
	tapeA, modelA := cartA.Tape(), cartA.Model()
	tapeB, modelB := cartB.Tape(), cartB.Model()

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()

	switch *fig {
	case 3:
		accA, err := sim.LocateAccuracy(drive.New(tapeA), modelA, 3000, *seed)
		if err != nil {
			log.Fatal(err)
		}
		accB, err := sim.LocateAccuracy(drive.New(tapeB), modelB, 1000, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "# raw locate-time model accuracy (Section 3)\n")
		fmt.Fprintf(w, "model-development tape: %d/%d locates err > 2s (paper: 7/3000), mean |err| %.3fs, max %.2fs\n",
			accA.Over2s, accA.Locates, accA.MeanAbsErr, accA.MaxAbsErr)
		fmt.Fprintf(w, "different tape:         %d/%d locates err > 2s (paper: 24/1000), mean |err| %.3fs, max %.2fs\n",
			accB.Over2s, accB.Locates, accB.MeanAbsErr, accB.MaxAbsErr)

	case 8:
		points, err := sim.Validate(sim.ValidationConfig{
			Drive:  drive.New(tapeA),
			Model:  modelA,
			Trials: *trials,
			Seed:   *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "# Figure 8: LOSS schedules on %s, correct key points\n", tapeA)
		if err := sim.WriteValidation(w, points); err != nil {
			log.Fatal(err)
		}

	case 9:
		points, err := sim.Validate(sim.ValidationConfig{
			Drive:  drive.New(tapeA),
			Model:  modelB, // the wrong tape's characterization
			Trials: *trials,
			Seed:   *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "# Figure 9: LOSS schedules on %s using key points of %s\n", tapeA, tapeB)
		if err := sim.WriteValidation(w, points); err != nil {
			log.Fatal(err)
		}

	case 10:
		points, err := sim.PerturbStudy(sim.PerturbConfig{
			Model:  modelA,
			Trials: sim.ScaledTrials(*divisor, 4),
			Start:  sim.BOTStart,
			Seed:   *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := sim.WritePerturb(w, points); err != nil {
			log.Fatal(err)
		}

	default:
		log.Fatalf("unknown -fig %d, want 3, 8, 9 or 10", *fig)
	}
}
