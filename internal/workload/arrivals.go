package workload

import (
	"fmt"
	"math"

	"serpentine/internal/rand48"
)

// PoissonProcess is an open-ended Poisson arrival stream: exponential
// inter-arrival gaps by inversion over the same lrand48 generator as
// everything else. The online server draws from it incrementally, so
// an arrival stream need not be materialized up front; PoissonArrivals
// remains the batch convenience over the identical draw sequence.
type PoissonProcess struct {
	rng  *rand48.Source
	rate float64
	t    float64
}

// NewPoissonProcess returns a process with the given mean rate
// (events per second), starting at time zero. It panics on a rate
// that is not positive and finite; use PoissonArrivals for an
// error-returning construction.
func NewPoissonProcess(ratePerSec float64, seed int64) *PoissonProcess {
	if err := checkRate(ratePerSec); err != nil {
		panic(err.Error())
	}
	return &PoissonProcess{rng: rand48.New(seed), rate: ratePerSec}
}

// checkRate rejects a rate that is not positive and finite. NaN and
// +Inf pass a bare "> 0" test in one direction or the other: +Inf
// would put every arrival at time 0, NaN every arrival at NaN.
func checkRate(ratePerSec float64) error {
	if !(ratePerSec > 0) || math.IsInf(ratePerSec, 1) {
		return fmt.Errorf("workload: Poisson rate %g per second is not positive and finite", ratePerSec)
	}
	return nil
}

// Rate returns the mean event rate per second.
func (p *PoissonProcess) Rate() float64 { return p.rate }

// Next returns the next arrival time in seconds. Times are strictly
// ascending.
func (p *PoissonProcess) Next() float64 {
	u := p.rng.Drand48()
	for u == 0 {
		u = p.rng.Drand48()
	}
	p.t += -math.Log(u) / p.rate
	return p.t
}

// PoissonArrivals returns n arrival times (seconds, ascending) of a
// Poisson process with the given mean rate (events per second),
// generated from the same lrand48 stream as everything else:
// exponential inter-arrival gaps by inversion. Online tertiary
// storage studies need an arrival process — batching trades response
// time against throughput, and that trade only exists under arrivals
// spread over time.
func PoissonArrivals(ratePerSec float64, n int, seed int64) ([]float64, error) {
	if err := checkRate(ratePerSec); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("workload: negative event count %d", n)
	}
	p := NewPoissonProcess(ratePerSec, seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = p.Next()
	}
	return out, nil
}
