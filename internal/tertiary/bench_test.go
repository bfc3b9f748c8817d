package tertiary

import (
	"testing"

	"serpentine/internal/geometry"
)

// benchStore builds the shared read-only store and a representative
// request stream once: a 4-cartridge library under a 240/h Poisson
// stream of 400 Zipf-popular object reads — the same shape as the
// committed results/library.txt sweep's densest cell.
type benchCell struct {
	lib    *Library
	stream []Request
}

func buildBenchCell(b *testing.B, drives, batchLimit, requests int) benchCell {
	b.Helper()
	const (
		tapeCount = 4
		objects   = 512
		objSegs   = 32
	)
	profile := geometry.DLT4000()
	catalog := NewCatalog()
	serials := make([]int64, tapeCount)
	for t := 0; t < tapeCount; t++ {
		serial := int64(3000 + t)
		serials[t] = serial
		tape, err := geometry.Generate(profile, serial)
		if err != nil {
			b.Fatal(err)
		}
		stride := tape.Segments() / objects
		for o := 0; o < objects; o++ {
			if err := catalog.Put(Object{
				ID:       sweepObjectID(t, o),
				Tape:     serial,
				Start:    o * stride,
				Segments: objSegs,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	lib, err := New(Config{
		Profile:    profile,
		Tapes:      serials,
		Drives:     drives,
		BatchLimit: batchLimit,
	}, catalog)
	if err != nil {
		b.Fatal(err)
	}
	stream, err := SweepStream(240, requests, 12345, tapeCount, objects, 0)
	if err != nil {
		b.Fatal(err)
	}
	return benchCell{lib: lib, stream: stream}
}

// BenchmarkLibrarySweepCell runs one representative library-sweep
// cell end to end — admission, batching, robot exchanges, scheduling
// and execution through the recovering executor — and reports the
// simulated-request throughput the sweep machinery sustains. This is
// the headline end-to-end number BENCH_PR6.json tracks.
func BenchmarkLibrarySweepCell(b *testing.B) {
	c := buildBenchCell(b, 2, 16, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.lib.Run(c.stream); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(c.stream))*float64(b.N)/b.Elapsed().Seconds(), "reqs/s")
}

// BenchmarkLibrarySweepCellUnlimited is the dense-batch variant: no
// batch cap, so whole backlogs are scheduled per mount.
func BenchmarkLibrarySweepCellUnlimited(b *testing.B) {
	c := buildBenchCell(b, 2, 0, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.lib.Run(c.stream); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(c.stream))*float64(b.N)/b.Elapsed().Seconds(), "reqs/s")
}

// BenchmarkEventLoopDispatch measures the central dispatch loop's
// event-heap steady state: a pool of drives completing and being
// rescheduled in virtual-time order, the pattern Run's wake/serve
// cycle drives millions of times in a fleet sweep.
func BenchmarkEventLoopDispatch(b *testing.B) {
	const drives = 16
	var events eventHeap
	for d := 0; d < drives; d++ {
		events.push(driveEvent{at: float64(d) * 1.7, drive: d})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := events.popMin()
		events.push(driveEvent{at: ev.at + 40 + float64(ev.drive), drive: ev.drive})
	}
}
