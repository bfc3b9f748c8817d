// Package hsm adds the storage hierarchy's missing middle: a
// bounded-bytes disk staging cache between admission and the tape
// library. Hits are served at disk cost — a fixed latency plus a
// bandwidth-priced transfer, no mount, no locate — and misses fall
// through to the library's own event loop (tertiary.Runner); when a
// miss's fetch completes, the extent is installed in the cache, with
// an optional prefetch of the rest of its coalesced segment run (the
// paper's T=1410 coalescing threshold reused as the prefetch unit).
// Eviction is pluggable (LRU, clock, cost-aware on the re-fetch price
// tertiary.Library.RefetchSec models), write-back is optional, and
// everything is pure virtual-time bookkeeping: a tier run is a
// deterministic function of its configuration.
//
// The spine of the package is the disabled case: a Tier with
// CapacityBytes 0 is a transparent pass-through, creating no cache
// state, no metric series and no spans, so its output is bit-identical
// to the bare library path — TestZeroCacheTierEquivalence and
// TestZeroCacheSweepEquivalence pin exactly this.
package hsm

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"serpentine/internal/core"
	"serpentine/internal/obs"
	"serpentine/internal/sim"
	"serpentine/internal/tertiary"
)

// CacheDriveID is the DriveID a cache-hit completion carries: the
// staging disk is not one of the library's transports.
const CacheDriveID = -1

// DiskModel prices the staging disk's hit path.
type DiskModel struct {
	// LatencySec is the fixed per-access overhead (seek plus request
	// handling); 0 selects 5 ms. Negative, NaN and Inf are errors.
	LatencySec float64
	// BytesPerSec is the staging disk's streaming rate; 0 selects
	// 8 MB/s, a mid-90s RAID stripe to match the DLT4000 era.
	// Negative, NaN and Inf are errors.
	BytesPerSec float64
}

func (d DiskModel) withDefaults() DiskModel {
	if d.LatencySec == 0 {
		d.LatencySec = 0.005
	}
	if d.BytesPerSec == 0 {
		d.BytesPerSec = 8 << 20
	}
	return d
}

// Config describes the staging tier.
type Config struct {
	// CapacityBytes bounds the cache. 0 disables the tier entirely:
	// every request passes straight to the library, and the tier's
	// output is bit-identical to the bare library path. Negative is
	// an error.
	CapacityBytes int64
	// Policy names the eviction policy: "lru" (default), "clock" or
	// "cost" (see NewPolicy).
	Policy string
	// Disk prices the hit path.
	Disk DiskModel
	// Prefetch, on a miss's fetch return, also installs the objects
	// ahead of it on the same cartridge while successive extents start
	// within PrefetchThreshold segments of the run's end — the whole
	// coalesced segment run the library would have read in one motion.
	// Prefetch installs are opportunistic: they fill free capacity but
	// never evict demand-resident data.
	Prefetch bool
	// PrefetchThreshold is the coalescing gap in segments; 0 selects
	// core.DefaultCoalesceThreshold (the paper's T=1410). Negative is
	// an error.
	PrefetchThreshold int
	// WriteBack enables Write: staged writes complete at disk cost,
	// are marked dirty, and pay their modeled tape-write time when
	// evicted or at the end-of-run flush.
	WriteBack bool
}

// validate rejects a negative capacity or threshold and a disk price
// that is negative, NaN or infinite. Only an exact 0 selects a
// default; an invalid config is rejected even when the tier is
// disabled.
func (c Config) validate() error {
	if c.CapacityBytes < 0 {
		return fmt.Errorf("hsm: CapacityBytes %d is negative", c.CapacityBytes)
	}
	if c.PrefetchThreshold < 0 {
		return fmt.Errorf("hsm: PrefetchThreshold %d is negative", c.PrefetchThreshold)
	}
	return sim.CheckFinite("hsm", map[string]float64{
		"Disk.LatencySec": c.Disk.LatencySec, "Disk.BytesPerSec": c.Disk.BytesPerSec,
	})
}

// Enabled reports whether the tier caches at all.
func (c Config) Enabled() bool { return c.CapacityBytes > 0 }

// Metrics summarizes a tier run: the cache's own accounting plus the
// wrapped library's metrics. For a disabled tier only Lib is set.
type Metrics struct {
	// Hits and Misses partition the offered lookups; HitSojournSec
	// sums the hit completions' sojourn times (each latency + transfer)
	// and MaxHitSojourn is their maximum.
	Hits          int
	Misses        int
	HitSojournSec float64
	MaxHitSojourn float64
	// Installs counts demand installs (fetch returns admitted);
	// PrefetchInstalls the run-extension installs behind them.
	Installs         int
	PrefetchInstalls int
	// Evictions and BytesEvicted account capacity pressure;
	// BytesResident is the end-of-run residency.
	Evictions     int
	BytesEvicted  int64
	BytesResident int64
	// Writes counts staged writes; Writebacks the dirty entries
	// written back to tape (on eviction or final flush) and FlushSec
	// their summed modeled tape-write time.
	Writes     int
	Writebacks int
	FlushSec   float64
	// Makespan is the run's end: the later of the library's makespan
	// and the last hit completion.
	Makespan float64
	// Lib is the wrapped library run's own metrics. With a cache,
	// Lib.Served counts only misses; Served() adds the hits back.
	Lib tertiary.Metrics
}

// Served is the total requests completed: library-served misses plus
// cache hits.
func (m Metrics) Served() int { return m.Lib.Served + m.Hits }

// HitRate is hits over lookups, 0 when nothing was offered.
func (m Metrics) HitRate() float64 {
	if m.Hits+m.Misses == 0 {
		return 0
	}
	return float64(m.Hits) / float64(m.Hits+m.Misses)
}

// install is one pending cache fill: a fetch completion whose data
// lands in the cache at its Done time.
type install struct {
	at  float64
	seq int64
	id  string
	obj tertiary.Object
}

// installHeap orders pending installs by (at, seq): arrival of the
// data, record order breaking ties — fully deterministic.
type installHeap []install

func (h installHeap) Len() int { return len(h) }
func (h installHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h installHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *installHeap) Push(x any)   { *h = append(*h, x.(install)) }

// Pop clears the vacated tail slot before shrinking: the backing
// array would otherwise pin the popped install's id string and object
// until overwritten — the same stale-tail retention class the
// admission queue's compaction once had.
func (h *installHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = install{}
	*h = old[:n-1]
	return x
}

// Tier is a staging cache wrapped around one library's incremental
// run loop, speaking the same Advance/Offer/Finish contract so both a
// standalone Run and the fleet's per-shard lockstep driving work
// unchanged. Like the Runner it wraps, a Tier belongs to one
// goroutine.
type Tier struct {
	runner *tertiary.Runner
	lib    *tertiary.Library
	cfg    Config
	disk   DiskModel
	thresh int

	cache    *Cache
	segBytes int64

	installs  installHeap
	harvested int
	seq       int64
	last      float64 // latest offered arrival
	lastDone  float64 // latest hit completion

	// Write-through accounting lives outside the cache (the object
	// never staged), summed into Metrics next to the cache's own;
	// cacheWB tracks how many of the cache's writebacks the registry
	// counter has already seen.
	wtWritebacks int
	wtFlushSec   float64
	cacheWB      int

	hits []tertiary.Completion
	m    Metrics

	// events and shard mirror the library config's wide-event wiring:
	// cache hits complete outside the library loop, so the tier emits
	// their wide events itself.
	events *obs.EventRing
	shard  int

	trace *obs.TraceHandle
	root  *obs.SpanHandle

	hitC, missC, installC, prefetchC, evictC, writebackC *obs.Counter
	residentG                                            *obs.Gauge
	hitHist                                              *obs.Histogram

	finished bool
}

// NewTier opens the library's run loop behind a staging cache. With
// CapacityBytes 0 the tier is a transparent pass-through: the library
// is opened as-is and no cache state, metric series or spans exist.
// With a cache, the tier inherits the library's registry, labels and
// span wiring (Library.Config), nesting a "cache" span above the
// library's run span when tracing is on.
func NewTier(lib *tertiary.Library, cfg Config) (*Tier, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t := &Tier{lib: lib, cfg: cfg}
	if !cfg.Enabled() {
		r, err := lib.StartRun()
		if err != nil {
			return nil, err
		}
		t.runner = r
		return t, nil
	}
	pol, err := NewPolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}
	t.disk = cfg.Disk.withDefaults()
	t.thresh = cfg.PrefetchThreshold
	if t.thresh == 0 {
		t.thresh = core.DefaultCoalesceThreshold
	}
	t.cache = NewCache(cfg.CapacityBytes, pol)

	lc := lib.Config()
	t.segBytes = lc.Profile.SegmentBytes
	t.events, t.shard = lc.Events, lc.Shard
	if lc.Spans != nil || lc.SpanTrace != nil {
		trace := lc.SpanTrace
		if trace == nil {
			trace = lc.Spans.StartTrace()
		}
		root := trace.Start("cache", lc.SpanParent, 0).
			Attr("policy", pol.Name()).
			AttrInt("capacity_mb", int(cfg.CapacityBytes>>20)).
			Lane(lc.Lane)
		lc.SpanTrace, lc.SpanParent = trace, root
		t.trace, t.root = trace, root
		lib = lib.Clone(lc)
		t.lib = lib
	}
	reg := lc.Reg
	if reg == nil {
		// A throwaway registry keeps the hit path branch-free when the
		// library run has no registry of its own.
		reg = obs.NewRegistry()
	}
	t.hitC = reg.Counter("cache_hits_total", lc.Labels...)
	t.missC = reg.Counter("cache_misses_total", lc.Labels...)
	t.installC = reg.Counter("cache_installs_total", lc.Labels...)
	t.prefetchC = reg.Counter("cache_prefetch_installs_total", lc.Labels...)
	t.evictC = reg.Counter("cache_evictions_total", lc.Labels...)
	t.writebackC = reg.Counter("cache_writebacks_total", lc.Labels...)
	t.residentG = reg.Gauge("cache_bytes_resident", lc.Labels...)
	t.hitHist = reg.Histogram("cache_hit_seconds", lc.Labels...)

	r, err := lib.StartRun()
	if err != nil {
		return nil, err
	}
	t.runner = r
	return t, nil
}

// Runner exposes the wrapped library loop for probes (queue depth,
// mounted cartridges, headroom) — the routing tier reads them off the
// same runner the tier drives.
func (t *Tier) Runner() *tertiary.Runner { return t.runner }

// Cached reports residency as of the tier's last advance, without
// touching recency state — the router's hit/miss probe. Always false
// for a disabled tier.
func (t *Tier) Cached(id string) bool {
	return t.cache != nil && t.cache.Contains(id)
}

// objBytes is the extent's size under the library's profile.
func (t *Tier) objBytes(o tertiary.Object) int64 {
	segs := o.Segments
	if segs <= 0 {
		segs = 1
	}
	return int64(segs) * t.segBytes
}

// AdvanceTo advances the wrapped loop to t, then harvests fetch
// returns and applies every install due by then, so Cached answers as
// of ts.
func (t *Tier) AdvanceTo(ts float64) error {
	if err := t.runner.AdvanceTo(ts); err != nil {
		return err
	}
	if t.cache != nil {
		t.absorb(ts)
	}
	return nil
}

// absorb harvests the library's newly recorded completions into the
// install heap and applies the installs due by now. Completions are
// recorded at batch dispatch time with Done timestamps that may lie
// ahead; after AdvanceTo(now) every completion with Done <= now has
// been recorded, so the applied set is exact.
func (t *Tier) absorb(now float64) {
	done := t.runner.Completed()
	for _, c := range done[t.harvested:] {
		t.seq++
		heap.Push(&t.installs, install{at: c.Done, seq: t.seq, id: c.ObjectID, obj: c.Object})
	}
	t.harvested = len(done)
	for len(t.installs) > 0 && t.installs[0].at <= now {
		in := heap.Pop(&t.installs).(install)
		t.apply(in)
	}
}

// apply lands one fetched extent in the cache and, when configured,
// prefetches the rest of its coalesced run.
func (t *Tier) apply(in install) {
	cost := t.lib.RefetchSec(in.obj)
	if t.cache.Install(in.id, t.objBytes(in.obj), cost) {
		t.m.Installs++
		t.installC.Inc()
	}
	t.syncCacheCounters()
	if t.cfg.Prefetch {
		t.prefetch(in.obj)
	}
}

// prefetch extends the fetched extent into its coalesced segment run:
// walking the cartridge's layout order forward from the extent, every
// object whose start lies within the coalescing threshold of the
// run's end joins the run and is installed if free capacity holds it.
// This is the paper's coalescing analysis inverted — the segments the
// library would have merged into one motion are the segments worth
// keeping once the motion was paid for.
func (t *Tier) prefetch(o tertiary.Object) {
	objs := t.lib.TapeObjects(o.Tape)
	idx := sort.Search(len(objs), func(i int) bool {
		if objs[i].Start != o.Start {
			return objs[i].Start >= o.Start
		}
		return objs[i].ID >= o.ID
	})
	if idx >= len(objs) || objs[idx].ID != o.ID {
		return // a replica extent not in this catalog's layout
	}
	segs := o.Segments
	if segs <= 0 {
		segs = 1
	}
	runEnd := o.Start + segs
	// No extent is smaller than one segment, so once free capacity
	// drops below that nothing further down the run can be installed.
	for j := idx + 1; j < len(objs) && t.cache.Free() >= t.segBytes; j++ {
		next := objs[j]
		if next.Start-runEnd >= t.thresh {
			return
		}
		// Price the re-fetch only for an extent the cache will take: a
		// resident or oversized one is skipped, and the walk goes on.
		if b := t.objBytes(next); b <= t.cache.Free() && !t.cache.Contains(next.ID) &&
			t.cache.InstallIfRoom(next.ID, b, t.lib.RefetchSec(next)) {
			t.m.PrefetchInstalls++
			t.prefetchC.Inc()
		}
		if end := next.Start + max(next.Segments, 1); end > runEnd {
			runEnd = end
		}
	}
}

// syncCacheCounters folds the cache's eviction/write-back counters
// into the tier metrics and the registry.
func (t *Tier) syncCacheCounters() {
	if d := t.cache.Evictions() - t.m.Evictions; d > 0 {
		t.m.Evictions += d
		t.evictC.Add(int64(d))
	}
	if d := t.cache.Writebacks() - t.cacheWB; d > 0 {
		t.cacheWB += d
		t.writebackC.Add(int64(d))
	}
	t.m.Writebacks = t.cacheWB + t.wtWritebacks
	t.m.BytesEvicted = t.cache.BytesEvicted()
	t.m.FlushSec = t.cache.FlushSec() + t.wtFlushSec
	t.m.BytesResident = t.cache.Resident()
	t.residentG.Set(float64(t.cache.Resident()))
}

// Offer routes one request: a resident object completes at disk cost,
// anything else falls through to the library's admission — so only
// misses consume the library's queue capacity. Offers must be
// nondecreasing in arrival time, like the Runner's.
func (t *Tier) Offer(req tertiary.Request) error {
	return t.OfferRouted(req, "")
}

// OfferRouted is Offer carrying the routing tier's decision for the
// request: pure annotation, stamped onto the request's wide event
// (by the tier for a hit, by the library for a miss) and nothing
// else.
func (t *Tier) OfferRouted(req tertiary.Request, route string) error {
	if t.cache == nil {
		return t.runner.OfferRouted(req, route)
	}
	if t.finished {
		return fmt.Errorf("hsm: offer after Finish")
	}
	if math.IsNaN(req.Arrival) || math.IsInf(req.Arrival, 0) {
		return fmt.Errorf("hsm: request arrives at %g", req.Arrival)
	}
	if req.Arrival < t.last {
		return fmt.Errorf("hsm: request offered at %g behind the clock (last offer %g)", req.Arrival, t.last)
	}
	t.last = req.Arrival
	t.absorb(req.Arrival)
	if t.cache.Touch(req.ObjectID) {
		t.hit(req, route)
		return nil
	}
	t.m.Misses++
	t.missC.Inc()
	return t.runner.OfferRouted(req, route)
}

// hit completes the request off the staging disk.
func (t *Tier) hit(req tertiary.Request, route string) {
	obj, _ := t.lib.Object(req.ObjectID)
	transfer := float64(t.objBytes(obj)) / t.disk.BytesPerSec
	svc := t.disk.LatencySec + transfer
	done := req.Arrival + svc
	t.hits = append(t.hits, tertiary.Completion{
		Request: req,
		Object:  obj,
		Done:    done,
		DriveID: CacheDriveID,
		Attribution: tertiary.Attribution{
			LocateSec:   t.disk.LatencySec,
			TransferSec: transfer,
		},
	})
	t.m.Hits++
	t.m.HitSojournSec += svc
	if svc > t.m.MaxHitSojourn {
		t.m.MaxHitSojourn = svc
	}
	if done > t.lastDone {
		t.lastDone = done
	}
	t.hitC.Inc()
	t.hitHist.Observe(svc)
	if t.events != nil {
		t.events.Add(obs.Event{
			Shard:       t.shard,
			Object:      req.ObjectID,
			Tape:        obj.Tape,
			Drive:       CacheDriveID,
			Class:       req.Class(),
			Outcome:     obs.OutcomeServed,
			Cache:       true,
			Route:       route,
			ArrivalSec:  req.Arrival,
			DoneSec:     done,
			LocateSec:   t.disk.LatencySec,
			TransferSec: transfer,
		})
	}
	if t.trace != nil {
		t.trace.Start("hit", t.root, req.Arrival).
			Attr("object", req.ObjectID).
			End(done)
	}
}

// Write stages a write-back write: the object lands in the cache
// dirty, completing at disk cost, and pays its modeled tape-write
// time when evicted or at the final flush. An object too large for
// the cache writes through (an immediate writeback). Requires an
// enabled cache with Config.WriteBack.
func (t *Tier) Write(id string, at float64) (float64, error) {
	if t.cache == nil || !t.cfg.WriteBack {
		return 0, fmt.Errorf("hsm: Write requires an enabled write-back cache")
	}
	if t.finished {
		return 0, fmt.Errorf("hsm: write after Finish")
	}
	obj, ok := t.lib.Object(id)
	if !ok {
		return 0, fmt.Errorf("hsm: write of unknown object %q", id)
	}
	if math.IsNaN(at) || math.IsInf(at, 0) || at < t.last {
		return 0, fmt.Errorf("hsm: write at %g behind the clock (last offer %g)", at, t.last)
	}
	t.last = at
	t.absorb(at)
	t.m.Writes++
	cost := t.lib.RefetchSec(obj)
	t.cache.Install(id, t.objBytes(obj), cost)
	if !t.cache.MarkDirty(id) {
		// Too large to stage: write through to tape immediately.
		t.wtWritebacks++
		t.wtFlushSec += cost
		t.writebackC.Inc()
	}
	t.syncCacheCounters()
	return at + t.disk.LatencySec + float64(t.objBytes(obj))/t.disk.BytesPerSec, nil
}

// Finish drains the wrapped loop, applies every remaining install,
// flushes dirty entries, and returns the merged completions — library
// fetches and cache hits together, stably sorted by completion time —
// with the tier metrics. For a disabled tier this is exactly the
// Runner's Finish.
func (t *Tier) Finish() ([]tertiary.Completion, Metrics, error) {
	if t.cache == nil {
		comps, lm, err := t.runner.Finish()
		return comps, Metrics{Lib: lm, Makespan: lm.Makespan}, err
	}
	if t.finished {
		return nil, Metrics{}, fmt.Errorf("hsm: double Finish")
	}
	t.finished = true
	// Drain the loop before Finish sorts the completion record: the
	// harvest index is only valid against record order.
	if err := t.runner.AdvanceTo(math.Inf(1)); err != nil {
		return nil, Metrics{}, err
	}
	t.absorb(math.Inf(1))
	comps, lm, err := t.runner.Finish()
	if err != nil {
		return nil, Metrics{}, err
	}
	if t.cfg.WriteBack {
		t.cache.FlushDirty()
	}
	t.syncCacheCounters()
	t.m.Lib = lm
	t.m.Makespan = lm.Makespan
	if t.lastDone > t.m.Makespan {
		t.m.Makespan = t.lastDone
	}
	all := make([]tertiary.Completion, 0, len(t.hits)+len(comps))
	all = append(all, t.hits...)
	all = append(all, comps...)
	sort.SliceStable(all, func(i, j int) bool { return all[i].Done < all[j].Done })
	if t.root != nil {
		t.root.AttrInt("hits", t.m.Hits).
			AttrInt("misses", t.m.Misses).
			AttrInt("evictions", t.m.Evictions).
			End(t.m.Makespan)
	}
	return all, t.m, nil
}

// Run serves a whole stream through the tier, the way Library.Run
// serves one without it: requests are stably sorted by arrival, the
// loop advances to each instant, every request at that instant is
// offered, and Finish folds up the run.
func (t *Tier) Run(stream []tertiary.Request) ([]tertiary.Completion, Metrics, error) {
	reqs := append([]tertiary.Request(nil), stream...)
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival })
	for i := 0; i < len(reqs); {
		at := reqs[i].Arrival
		if err := t.AdvanceTo(at); err != nil {
			return nil, Metrics{}, err
		}
		for ; i < len(reqs) && reqs[i].Arrival == at; i++ {
			if err := t.Offer(reqs[i]); err != nil {
				return nil, Metrics{}, err
			}
		}
	}
	return t.Finish()
}
