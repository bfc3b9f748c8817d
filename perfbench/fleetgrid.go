package main

import (
	"fmt"
	"strconv"

	"serpentine/internal/fault"
	"serpentine/internal/fleet"
	"serpentine/internal/hsm"
	"serpentine/internal/obs"
	"serpentine/internal/tertiary"
)

// fleet-grid drives the whole stack the way cmd/fleet and cmd/events
// drive it: one store per shard count, every (shard count, router)
// cell served from its own open-loop stream and failure history (nine
// independent samples per repetition keep seed-to-seed spread low),
// with a staging cache,
// cartridge loss, drive failures, a queue cap and a deadline on every
// shard, and the wide-event ring of every cell fed to an SLO engine.
// It alone exercises store build, routing and observability; batches
// stay at most 16 requests, so the scheduler does little.
const (
	fgReplicas  = 2
	fgDrives    = 2 // per shard
	fgBatch     = 16
	fgRate      = 120 // reads per virtual hour
	fgSkew      = 0.8
	fgLocality  = 0.25
	fgCapacity  = 64 << 20 // staging cache per shard
	fgQueueCap  = 24
	fgDeadline  = 1800   // virtual seconds
	fgLossRate  = 0.0005 // per mount attempt
	fgMTTF      = 12 * 3600
	fgMTTR      = 1800
	fgLatencyOK = 900 // latency limit (good_frac and the SLO), virtual seconds
)

var (
	fgShards  = []int{1, 2, 4}
	fgRouters = []fleet.Router{fleet.RoundRobin{}, fleet.LeastLoaded{}, fleet.Affinity{}}
)

type fgShape struct {
	tapes    int
	objects  int // objects per cartridge
	requests int // reads offered per cell
}

var fgDefault = fgShape{tapes: 16, objects: 128, requests: 6000}

type fleetGrid struct {
	fleets  []*fleet.Fleet       // parallel to fgShards
	streams [][]tertiary.Request // per cell, shard-major
	seed    int64
}

// fleetObjectID is the fleet store's object naming: object o of
// cartridge t (serial 3000+t) is "t<t>/o<o>".
func fleetObjectID(t, o int) string {
	return "t" + strconv.Itoa(t) + "/o" + strconv.Itoa(o)
}

func setupFleetGrid(seed int64, tr *tracer) (instance, error) {
	return newFleetGrid(seed, tr, fgDefault)
}

func newFleetGrid(seed int64, tr *tracer, sh fgShape) (*fleetGrid, error) {
	tr.begin("workload.gen", -1)
	ids := make([]string, 0, sh.tapes*sh.objects)
	for t := 0; t < sh.tapes; t++ {
		for o := 0; o < sh.objects; o++ {
			ids = append(ids, fleetObjectID(t, o))
		}
	}
	g := &fleetGrid{seed: seed}
	for c := range len(fgShards) * len(fgRouters) {
		g.streams = append(g.streams, reads(openStream(cellSeed(seed, c), sh.requests, fgRate, ids, sh.objects, fgSkew, fgLocality, 0)))
	}
	tr.end()
	for _, s := range fgShards {
		tr.begin("fleet.New", -1)
		f, err := fleet.New(fleet.StoreConfig{Shards: s, TapeCount: sh.tapes, Objects: sh.objects, Replicas: fgReplicas})
		tr.end()
		if err != nil {
			return nil, err
		}
		g.fleets = append(g.fleets, f)
	}
	// Warm-up: one fault-free run per store reading object 0 of every
	// cartridge, so every cartridge of every store is mounted once.
	tr.begin("warmup", -1)
	defer tr.end()
	var warm []tertiary.Request
	for t := 0; t < sh.tapes; t++ {
		warm = append(warm, tertiary.Request{ObjectID: fleetObjectID(t, 0)})
	}
	for _, f := range g.fleets {
		tr.begin("fleet.Fleet.Run", -1)
		_, m, err := f.Run(fleet.RunConfig{Drives: fgDrives, Router: fleet.PassThrough{}}, warm)
		tr.end()
		if err != nil {
			return nil, err
		}
		if m.Served != len(warm) {
			return nil, checkf("fleet warm-up served %d of %d", m.Served, len(warm))
		}
	}
	return g, nil
}

func (g *fleetGrid) run(tr *tracer) (outcome, error) {
	t := newTally()
	var fm fleet.Metrics // summed over cells
	var events, dropped, alerts int64
	for si, f := range g.fleets {
		for ri, rt := range fgRouters {
			c := si*len(fgRouters) + ri
			stream := g.streams[c]
			tr.setCell(fmt.Sprintf("shards=%d/router=%s", fgShards[si], rt.Name()))
			ring := obs.NewEventRing(len(stream))
			tr.begin("fleet.Fleet.Run", -1)
			res, m, err := f.Run(fleet.RunConfig{
				Drives:      fgDrives,
				BatchLimit:  fgBatch,
				QueueCap:    fgQueueCap,
				DeadlineSec: fgDeadline,
				Lifecycle: fault.LifecycleConfig{
					CartridgeLossRate: fgLossRate,
					DriveMTTFSec:      fgMTTF,
					DriveMTTRSec:      fgMTTR,
					Seed:              cellSeed(g.seed, c) + 5,
				},
				Cache:  hsm.Config{CapacityBytes: fgCapacity},
				Router: router(rt, tr),
				Seed:   cellSeed(g.seed, c),
				Events: ring,
			}, stream)
			tr.end()
			if err != nil {
				return outcome{}, err
			}
			cell := fmt.Sprintf("fleet-grid %d shards %s", fgShards[si], rt.Name())
			if err := checkCell(cell, res, m, len(stream)); err != nil {
				return outcome{}, err
			}
			for _, r := range res {
				if err := t.completions(r.Completions); err != nil {
					return outcome{}, err
				}
				t.library(r.Metrics, fgDrives, r.Routed-r.CacheHits)
			}
			n, a, err := observe(ring, m.Makespan, tr)
			if err != nil {
				return outcome{}, err
			}
			if n != int64(m.Offered) {
				return outcome{}, checkf("%s: %d wide events for %d requests", cell, n, m.Offered)
			}
			events += n
			dropped += ring.Dropped()
			alerts += a
			fm.Offered += m.Offered
			fm.Served += m.Served
			fm.Failed += m.Failed
			fm.Rejected += m.Rejected
			fm.Shed += m.Shed
			fm.AffinityHits += m.AffinityHits
			fm.CrossShardReads += m.CrossShardReads
			fm.Unroutable += m.Unroutable
			fm.CacheHits += m.CacheHits
			fm.CacheMisses += m.CacheMisses
			fm.Makespan += m.Makespan
		}
	}
	tr.setCell("")
	t.o.offered, t.o.reads = fm.Offered, fm.Offered
	t.o.served, t.o.failed, t.o.rejected, t.o.shed = fm.Served, fm.Failed, fm.Rejected, fm.Shed
	t.o.makespan = fm.Makespan
	o := t.finish()
	o.sim["fleet.affinity_frac"] = float64(fm.AffinityHits) / float64(fm.Offered)
	o.sim["fleet.cross_shard_reads"] = float64(fm.CrossShardReads)
	o.sim["fleet.unroutable"] = float64(fm.Unroutable)
	o.sim["fleet.cache_hit_rate"] = float64(fm.CacheHits) / float64(fm.CacheHits+fm.CacheMisses)
	o.sim["hsm.hit_rate"] = o.sim["fleet.cache_hit_rate"]
	o.sim["obs.events"] = float64(events)
	o.sim["obs.events_dropped"] = float64(dropped)
	o.sim["obs.alerts"] = float64(alerts)
	return o, nil
}

// cellSeed derives cell c's seed from the run seed.
func cellSeed(seed int64, c int) int64 { return seed*1000003 + int64(c)*8191 + 7 }

// checkCell checks one fleet cell's conservation: the fleet's
// outcomes partition the stream, the shards' routed counts sum to it,
// and every shard's tape outcomes plus cache hits partition what was
// routed to it.
func checkCell(cell string, res []fleet.ShardResult, m fleet.Metrics, offered int) error {
	if m.Offered != offered {
		return checkf("%s: offered %d, stream %d", cell, m.Offered, offered)
	}
	if err := conserve(cell, m.Offered, m.Served, m.Failed, m.Rejected, m.Shed); err != nil {
		return err
	}
	routed := 0
	for s, r := range res {
		routed += r.Routed
		sm := r.Metrics
		if err := conserve(fmt.Sprintf("%s shard %d", cell, s), r.Routed, sm.Served+r.CacheHits, sm.Failed, sm.Rejected, sm.Shed); err != nil {
			return err
		}
		if len(r.Completions) != sm.Served+r.CacheHits {
			return checkf("%s shard %d: %d completions for %d served", cell, s, len(r.Completions), sm.Served+r.CacheHits)
		}
	}
	if routed != offered {
		return checkf("%s: routed %d of %d", cell, routed, offered)
	}
	return nil
}

// observe feeds a cell's wide events, in terminal-time order, to a
// fresh SLO engine with an availability and a latency objective, and
// returns the event count and the alert transitions.
func observe(ring *obs.EventRing, makespan float64, tr *tracer) (events, alerts int64, err error) {
	tr.begin("obs.NewSLOEngine", -1)
	eng, err := obs.NewSLOEngine(obs.SLOConfig{Objectives: []obs.Objective{
		{Name: "availability", Target: 0.99},
		{Name: "latency", Target: 0.9, LatencySec: fgLatencyOK},
	}})
	tr.end()
	if err != nil {
		return 0, 0, err
	}
	tr.begin("obs.EventRing.Events", -1)
	evs := ring.Events()
	tr.end()
	for i, ev := range evs {
		if d := ev.AttributionSum() - ev.SojournSec(); !(d <= attributionTol && d >= -attributionTol) {
			return 0, 0, checkf("wide event %d (%s) attribution misses its sojourn by %g s", ev.Seq, ev.Outcome, d)
		}
		tr.begin("obs.SLOEngine.ObserveEvent", int64(i))
		eng.ObserveEvent(ev)
		tr.end()
	}
	tr.begin("obs.SLOEngine.Advance", -1)
	eng.Advance(makespan)
	tr.end()
	return ring.Total(), int64(len(eng.Alerts())), nil
}
