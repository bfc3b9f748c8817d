package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Cells runs cell on every spec over a pool of workers and returns the
// results in spec order. It is the worker pool behind every cell sweep
// (chaos, online, library, outage, cache, fleet). workers == 0 selects
// GOMAXPROCS; the pool never exceeds len(specs), and zero specs start
// no goroutines.
//
// Workers claim specs off a shared counter, so which goroutine runs a
// cell depends on scheduling; a sweep stays byte-identical at any
// worker count by deriving everything a cell does — seeds, registry,
// tracer — from its spec alone and by folding per-cell state in spec
// order afterwards.
//
// After the first failure no new spec is claimed. Claims are made in
// index order, so every spec below a failing one has already been
// claimed and runs to completion; the returned error is therefore the
// lowest-indexed failing spec's, whatever the worker count.
func Cells[S, C any](specs []S, workers int, cell func(S) (C, error)) ([]C, error) {
	if workers < 0 {
		return nil, fmt.Errorf("sim: %d workers", workers)
	}
	if len(specs) == 0 {
		return nil, nil
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	out := make([]C, len(specs))
	errs := make([]error, len(specs))
	var (
		wg     sync.WaitGroup
		next   atomic.Int64
		failed atomic.Bool
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				if out[i], errs[i] = cell(specs[i]); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// CheckSizes rejects negative integer sizes in a sweep config. The
// sweeps document their sizes as "0 selects <default>": only the exact
// zero is a default, so a negative size is an error naming its field,
// never a value silently replaced. With several negative fields the
// alphabetically first is named.
func CheckSizes(scope string, sizes map[string]int) error {
	if name, ok := firstBad(sizes, func(v int) bool { return v < 0 }); ok {
		return fmt.Errorf("%s: %s %d is negative (0 selects the default)", scope, name, sizes[name])
	}
	return nil
}

// CheckFinite is CheckSizes for real-valued knobs (seconds, rates):
// a negative, NaN or infinite value is an error naming its field.
func CheckFinite(scope string, vals map[string]float64) error {
	if name, ok := firstBad(vals, func(v float64) bool { return !(v >= 0) || math.IsInf(v, 1) }); ok {
		return fmt.Errorf("%s: %s %g is negative or not finite", scope, name, vals[name])
	}
	return nil
}

// firstBad returns the alphabetically first field that bad rejects.
func firstBad[V int | float64](fields map[string]V, bad func(V) bool) (string, bool) {
	first, found := "", false
	for name, v := range fields {
		if bad(v) && (!found || name < first) {
			first, found = name, true
		}
	}
	return first, found
}
