package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// Cells returns results in spec order, and the same results at any
// worker count — including pools wider than the spec list.
func TestCellsSpecOrderAtAnyWorkerCount(t *testing.T) {
	specs := make([]int, 23)
	for i := range specs {
		specs[i] = i
	}
	cell := func(s int) (string, error) {
		if s%3 == 0 {
			runtime.Gosched() // shuffle completion order
		}
		return fmt.Sprintf("cell-%d-%d", s, s*s), nil
	}
	var want []string
	for _, workers := range []int{1, 2, 8, len(specs) + 3} {
		got, err := Cells(specs, workers, cell)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, g := range got {
			if w, _ := cell(specs[i]); g != w {
				t.Fatalf("workers=%d: result %d = %q, want %q", workers, i, g, w)
			}
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: results differ from workers=1", workers)
		}
	}
}

// When several cells fail, Cells reports the lowest-indexed failure at
// every worker count, even when a later cell fails first in wall time.
func TestCellsLowestIndexedErrorWins(t *testing.T) {
	specs := make([]int, 12)
	for i := range specs {
		specs[i] = i
	}
	for _, workers := range []int{1, 2, 8, len(specs) + 3} {
		late := make(chan struct{})
		cell := func(s int) (int, error) {
			switch s {
			case 3:
				// Hold cell 3 until cell 7 has failed, so with two or
				// more workers the higher index fails first. A single
				// worker never reaches cell 7; the timeout covers it.
				select {
				case <-late:
				case <-time.After(100 * time.Millisecond):
				}
				return 0, fmt.Errorf("cell %d failed", s)
			case 7:
				defer close(late)
				return 0, fmt.Errorf("cell %d failed", s)
			}
			return s, nil
		}
		got, err := Cells(specs, workers, cell)
		if err == nil || err.Error() != "cell 3 failed" {
			t.Fatalf("workers=%d: err = %v, want cell 3's", workers, err)
		}
		if got != nil {
			t.Fatalf("workers=%d: results %v returned with an error", workers, got)
		}
	}
}

// Zero specs return nil, nil without calling the cell or starting a
// pool: the empty path allocates nothing, and a goroutine launch would.
func TestCellsZeroSpecs(t *testing.T) {
	cell := func(int) (int, error) {
		t.Error("cell called with no specs")
		return 0, nil
	}
	got, err := Cells(nil, 4, cell)
	if got != nil || err != nil {
		t.Fatalf("Cells(nil) = %v, %v; want nil, nil", got, err)
	}
	if allocs := testing.AllocsPerRun(100, func() { Cells([]int{}, 0, cell) }); allocs != 0 {
		t.Fatalf("Cells with zero specs allocated %v times per call", allocs)
	}
}

func TestCellsRejectsNegativeWorkers(t *testing.T) {
	if _, err := Cells([]int{1}, -1, func(s int) (int, error) { return s, nil }); err == nil {
		t.Fatal("Cells accepted -1 workers")
	}
}

// CellSeed and trialSeed are the formulas every committed result was
// generated with; a change to either would silently regenerate every
// sweep with different streams.
func TestSeedDerivationsArePinned(t *testing.T) {
	for _, c := range []struct {
		got, want int64
	}{
		{CellSeed(1, 0, 0, 0), 1000010},
		{CellSeed(42, 3, 2, 1), 42*1000003 + 3*8191 + 2*521 + 131 + 7},
		{CellSeed(-5, 0, 7, 0), -5*1000003 + 7*521 + 7},
		{trialSeed(12345, 128, 9), 12345*1000003 + 128*1000003607 + 9},
	} {
		if c.got != c.want {
			t.Errorf("seed %d, want %d", c.got, c.want)
		}
	}
}
