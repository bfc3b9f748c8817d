package main

import (
	"strconv"

	"serpentine/internal/geometry"
	"serpentine/internal/hsm"
	"serpentine/internal/tertiary"
)

// cache-rw puts one library behind an hsm staging tier with
// write-back and prefetch on, and interleaves Zipf reads with a fixed
// share of staged writes. The cost-aware policy, which scans for its
// victim, runs under eviction pressure: the cache holds 64 of the
// store's 2048 one-megabyte objects. The tier is the hot layer; the
// writes use it differently from the reads (dirty installs and
// flushes), so a change that helps reads at the cost of writes shows.
// A repetition serves several independent streams, each through a
// fresh tier, so one seed's draw of which objects are hot does not
// decide the whole run.
const (
	crSegments  = 32 // segments (32 KB) per object
	crDrives    = 2
	crCapacity  = 64 << 20
	crRate      = 120 // operations per virtual hour
	crSkew      = 0.8
	crWriteFrac = 0.2
)

type crShape struct {
	tapes   int
	objects int // objects per cartridge
	streams int
	ops     int // operations offered per stream
}

var crDefault = crShape{tapes: 4, objects: 512, streams: 4, ops: 4000}

type cacheRW struct {
	base    *tertiary.Library
	streams [][]op
}

func setupCacheRW(seed int64, tr *tracer) (instance, error) {
	return newCacheRW(seed, tr, crDefault)
}

func newCacheRW(seed int64, tr *tracer, sh crShape) (*cacheRW, error) {
	tr.begin("tertiary.SweepStore", -1)
	base, err := tertiary.SweepStore(geometry.DLT4000(), sh.tapes, sh.objects, crSegments, 0, 0)
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("workload.gen", -1)
	objs := base.Objects()
	ids := make([]string, len(objs))
	for i, o := range objs {
		ids[i] = o.ID
	}
	c := &cacheRW{base: base}
	for k := range sh.streams {
		c.streams = append(c.streams, openStream(cellSeed(seed, k), sh.ops, crRate, ids, sh.objects, crSkew, 0, crWriteFrac))
	}
	tr.end()
	if err := warmLibrary(base, tr); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *cacheRW) run(tr *tracer) (outcome, error) {
	t := newTally()
	var sum hsm.Metrics // tier counters summed over the streams
	for k, ops := range c.streams {
		tr.setCell("stream=" + strconv.Itoa(k))
		m, writes, err := c.serve(ops, t, tr)
		if err != nil {
			return outcome{}, err
		}
		t.o.offered += len(ops)
		t.o.reads += len(ops) - writes
		t.o.served += m.Served()
		t.o.failed += m.Lib.Failed
		t.o.rejected += m.Lib.Rejected
		t.o.shed += m.Lib.Shed
		t.o.makespan += m.Makespan
		sum.Hits += m.Hits
		sum.PrefetchInstalls += m.PrefetchInstalls
		sum.Evictions += m.Evictions
		sum.Writebacks += m.Writebacks
		sum.FlushSec += m.FlushSec
	}
	tr.setCell("")
	o := t.finish()
	o.sim["hsm.hit_rate"] = float64(sum.Hits) / float64(o.reads)
	o.sim["hsm.evictions_per_kreq"] = 1000 * float64(sum.Evictions) / float64(o.offered)
	o.sim["hsm.writebacks"] = float64(sum.Writebacks)
	o.sim["hsm.prefetch_installs"] = float64(sum.PrefetchInstalls)
	o.sim["hsm.flush_s"] = sum.FlushSec
	return o, nil
}

// serve runs one stream through a fresh tier, checks its conservation
// and folds its completions into the tally.
func (c *cacheRW) serve(ops []op, t *tally, tr *tracer) (hsm.Metrics, int, error) {
	cfg := c.base.Config()
	cfg.Drives = crDrives
	cfg.Scheduler = scheduler(tr)
	tr.begin("hsm.NewTier", -1)
	tier, err := hsm.NewTier(c.base.Clone(cfg), hsm.Config{
		CapacityBytes: crCapacity,
		Policy:        "cost",
		Prefetch:      true,
		WriteBack:     true,
	})
	tr.end()
	if err != nil {
		return hsm.Metrics{}, 0, err
	}
	writes := 0
	for i, o := range ops {
		tr.begin("hsm.Tier.AdvanceTo", int64(i))
		err := tier.AdvanceTo(o.at)
		tr.end()
		if err != nil {
			return hsm.Metrics{}, 0, err
		}
		if o.write {
			writes++
			tr.begin("hsm.Tier.Write", int64(i))
			done, err := tier.Write(o.id, o.at)
			tr.end()
			if err != nil {
				return hsm.Metrics{}, 0, err
			}
			if !(done > o.at) {
				return hsm.Metrics{}, 0, checkf("cache-rw: write of %s at %g done at %g", o.id, o.at, done)
			}
			continue
		}
		tr.begin("hsm.Tier.Offer", int64(i))
		err = tier.Offer(tertiary.Request{ObjectID: o.id, Arrival: o.at})
		tr.end()
		if err != nil {
			return hsm.Metrics{}, 0, err
		}
	}
	tr.begin("hsm.Tier.Finish", -1)
	comps, m, err := tier.Finish()
	tr.end()
	if err != nil {
		return hsm.Metrics{}, 0, err
	}

	if err := t.completions(comps); err != nil {
		return hsm.Metrics{}, 0, err
	}
	t.library(m.Lib, crDrives, m.Misses)
	reads := len(ops) - writes
	if err := conserve("cache-rw", reads, m.Served(), m.Lib.Failed, m.Lib.Rejected, m.Lib.Shed); err != nil {
		return hsm.Metrics{}, 0, err
	}
	if m.Hits+m.Misses != reads || m.Writes != writes || len(comps) != m.Served() {
		return hsm.Metrics{}, 0, checkf("cache-rw: hits %d + misses %d, %d completions, %d writes for %d reads and %d writes",
			m.Hits, m.Misses, len(comps), m.Writes, reads, writes)
	}
	return m, writes, nil
}
