package core

import (
	"fmt"
	"sync"
	"testing"

	"serpentine/internal/geometry"
	"serpentine/internal/locate"
)

// Steady-state scheduler benchmarks: ns/op and allocs/op per algorithm
// and batch size. These are the PR-1 acceptance benchmarks — run them
// with `make bench` (which emits BENCH_PR1.json) and compare against
// the committed baseline in EXPERIMENTS.md.
var schedBench struct {
	once  sync.Once
	model *locate.Model
}

func schedBenchModel(b *testing.B) *locate.Model {
	b.Helper()
	schedBench.once.Do(func() {
		tape := geometry.MustGenerate(geometry.DLT4000(), 1)
		m, err := locate.FromKeyPoints(tape.KeyPoints())
		if err != nil {
			panic(err)
		}
		schedBench.model = m
	})
	return schedBench.model
}

// BenchmarkScheduler measures one Schedule call per iteration for
// LOSS, SLTF, SCAN and WEAVE, plus Auto, the dispatch path that every
// library run takes (OPT up to 10 requests, LOSS above), at the two
// acceptance batch sizes. Steady state should be ≤2 allocs/op (the
// returned Plan.Order plus at most one arena growth on the very first
// iterations).
func BenchmarkScheduler(b *testing.B) {
	m := schedBenchModel(b)
	algs := []Scheduler{NewLOSS(), NewAuto(), NewSLTF(), Scan{}, Weave{}}
	for _, alg := range algs {
		for _, n := range []int{128, 1024} {
			b.Run(fmt.Sprintf("%s/n=%d", alg.Name(), n), func(b *testing.B) {
				p := randomProblem(b, m, n, 42)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := alg.Schedule(p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSchedulerVariants covers the coalesced and sparse variants
// the Auto policy dispatches to at large batch sizes.
func BenchmarkSchedulerVariants(b *testing.B) {
	m := schedBenchModel(b)
	algs := []Scheduler{
		NewLOSSCoalesced(DefaultCoalesceThreshold),
		NewSLTFCoalesced(DefaultCoalesceThreshold),
		NewSparseLOSS(),
	}
	for _, alg := range algs {
		b.Run(fmt.Sprintf("%s/n=1024", alg.Name()), func(b *testing.B) {
			p := randomProblem(b, m, 1024, 42)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := alg.Schedule(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
