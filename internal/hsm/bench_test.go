package hsm

import (
	"testing"

	"serpentine/internal/geometry"
	"serpentine/internal/tertiary"
)

// BenchmarkTierCell runs one staging-tier cell end to end: cmd/cache's
// default store (4 cartridges × 512 objects × 32 segments) behind a
// 64 MB cost-aware tier with prefetch and write-back on, under a
// 120/h Poisson stream in which every fifth operation is a staged
// write. 64 MB holds 64 of the 2048 objects, so every fetch return
// runs the prefetch walk and the eviction policy under pressure. Each
// iteration builds a fresh tier; reqs/s counts reads and writes.
func BenchmarkTierCell(b *testing.B) {
	const (
		tapes    = 4
		objects  = 512
		requests = 2000
	)
	base, err := tertiary.SweepStore(geometry.DLT4000(), tapes, objects, 32, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	stream, err := tertiary.SweepStream(120, requests, 12345, tapes, objects, 0)
	if err != nil {
		b.Fatal(err)
	}
	libCfg := base.Config()
	libCfg.Drives = 2
	cfg := Config{CapacityBytes: 64 << 20, Policy: "cost", Prefetch: true, WriteBack: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tier, err := NewTier(base.Clone(libCfg), cfg)
		if err != nil {
			b.Fatal(err)
		}
		for k, req := range stream {
			if err := tier.AdvanceTo(req.Arrival); err != nil {
				b.Fatal(err)
			}
			if k%5 == 4 {
				_, err = tier.Write(req.ObjectID, req.Arrival)
			} else {
				err = tier.Offer(req)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if _, _, err := tier.Finish(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(stream))*float64(b.N)/b.Elapsed().Seconds(), "reqs/s")
}
