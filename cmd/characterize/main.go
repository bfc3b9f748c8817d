// Command characterize discovers a cartridge's key points by timing
// locate operations against the (emulated) drive and writes the
// resulting table to a key file that the other tools load with
// -keyfile. Characterization is a once-per-cartridge cost; Figure 9
// of the paper shows why it cannot be skipped or borrowed from
// another cartridge.
//
//	characterize -serial 42 -o tape42.keypoints
//	tapesched -keyfile tape42.keypoints -compare 100 5000 250000
package main

import (
	"flag"
	"fmt"
	"log"

	"serpentine/internal/calibrate"
	"serpentine/internal/drive"
	"serpentine/internal/geometry"
	"serpentine/internal/locate"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("characterize: ")
	var (
		serial  = flag.Int64("serial", 1, "cartridge serial number to load and characterize")
		out     = flag.String("o", "", "output key file path (default tape<serial>.keypoints)")
		repeats = flag.Int("repeats", 3, "measurements per ambiguous probe (median taken)")
		exact   = flag.Bool("exact", false, "cheat: copy the true key points instead of measuring (instant)")
		check   = flag.Bool("check", false, "compare the discovered table against ground truth")
	)
	flag.Parse()

	cart, err := locate.Load(geometry.DLT4000(), *serial)
	if err != nil {
		log.Fatal(err)
	}
	tape := cart.Tape()
	path := *out
	if path == "" {
		path = fmt.Sprintf("tape%d.keypoints", *serial)
	}

	var kp *geometry.KeyPointTable
	if *exact {
		kp = tape.KeyPoints()
		fmt.Printf("copied true key points of %s\n", tape)
	} else {
		dev := drive.New(tape)
		res, err := calibrate.Calibrate(dev, calibrate.Options{Repeats: *repeats})
		if err != nil {
			log.Fatal(err)
		}
		kp = res.KeyPoints
		fmt.Printf("characterized %s: %d locates, %.0f simulated drive-hours, %d interpolated boundaries\n",
			tape, res.Locates, res.TapeSeconds/3600, res.Interpolated)
	}

	if *check {
		truth := tape.KeyPoints()
		worst, off := 0, 0
		for tr := range truth.Bound {
			for l := 2; l < len(truth.Bound[tr]); l++ {
				d := kp.Bound[tr][l] - truth.Bound[tr][l]
				if d < 0 {
					d = -d
				}
				if d > 0 {
					off++
				}
				if d > worst {
					worst = d
				}
			}
		}
		fmt.Printf("check: %d measured boundaries off (worst %d segments)\n", off, worst)
	}

	if err := geometry.SaveKeyPointsFile(path, kp, *serial); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}
