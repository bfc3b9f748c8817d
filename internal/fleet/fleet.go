// Package fleet scales the tertiary library horizontally: a cluster
// of shard libraries behind a deterministic routing tier. Placement
// deals cartridges round-robin across shards at build time and spreads
// each object's replicas onto consecutive cartridges — and therefore
// across shards — so a shard that loses its copy of an object degrades
// reads to a sister shard instead of failing them. Routing policies
// are pluggable Routers scored per request over the shards holding a
// live copy, with probes (queue depth, mounted cartridges, brownout
// headroom) supplied by each shard's incremental run loop
// (tertiary.Runner).
//
// Everything is driven by one virtual clock and contains no
// randomness beyond the seeded workload and the seeded routing
// tie-break, so a fleet run — like a single-library run — is a pure
// function of its configuration. Sweep exploits that the same way
// tertiary.Sweep does: per-cell derived seeds make the output
// byte-identical at any worker count.
package fleet

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"serpentine/internal/fault"
	"serpentine/internal/geometry"
	"serpentine/internal/hsm"
	"serpentine/internal/obs"
	"serpentine/internal/server"
	"serpentine/internal/sim"
	"serpentine/internal/tertiary"
)

// StoreConfig describes the cluster-wide store the fleet is built
// over: the single-library sweeps' store (tertiary.SweepLayout) with
// Replicas copies per object. Cartridge t lives on shard t mod Shards;
// copy k of object (t, o) lives on cartridge (t+k) mod TapeCount, k
// extents into the object's slot of that cartridge's stride — every
// copy on a distinct cartridge, and with Replicas > 1 usually on a
// distinct shard. Only an exact zero selects a field's default; a
// negative size is an error.
type StoreConfig struct {
	// Profile is the drive/cartridge format; zero value selects the
	// DLT4000.
	Profile geometry.Params
	// Shards is the library count; 0 selects 1. Must not exceed
	// TapeCount (every shard owns at least one cartridge).
	Shards int
	// TapeCount and Objects shape the store: cartridges across the
	// whole fleet and objects per cartridge; 0 select 8 and 256.
	// ObjectSegments is the extent length per object; 0 selects 32.
	TapeCount      int
	Objects        int
	ObjectSegments int
	// Replicas is the copy count per object; 0 and 1 mean no
	// replication. Must not exceed TapeCount, and the catalog stride
	// must fit Replicas copies.
	Replicas int
}

// copyGroup is one shard's copies of an object: the shard index and
// the cartridge serials holding the copies there, in copy order. The
// first group of an object's directory entry is the shard holding
// copy 0 — the primary shard.
type copyGroup struct {
	shard   int
	serials []int64
}

// Fleet is a built cluster: per-shard base libraries sharing their
// read-only stores, per-shard replica placements, and the routing
// directory mapping every object to the shards holding its copies. A
// Fleet is immutable after New; Run clones per-shard libraries for
// each run, so one Fleet serves concurrent runs (the sweep's cells).
type Fleet struct {
	bases      []*tertiary.Library
	placements []*tertiary.Placement
	dir        map[string][]copyGroup
}

// New builds the fleet store: lays out every copy of every object with
// tertiary.SweepLayout, deals the cartridges across shards, builds each
// shard's catalog and same-shard replica placement, and indexes every
// object's copies for the routing tier.
func New(cfg StoreConfig) (*Fleet, error) {
	if err := sim.CheckSizes("fleet: store", map[string]int{
		"Shards": cfg.Shards, "TapeCount": cfg.TapeCount, "Objects": cfg.Objects,
		"ObjectSegments": cfg.ObjectSegments, "Replicas": cfg.Replicas,
	}); err != nil {
		return nil, err
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.TapeCount == 0 {
		cfg.TapeCount = 8
	}
	if cfg.Objects == 0 {
		cfg.Objects = 256
	}
	if cfg.ObjectSegments == 0 {
		cfg.ObjectSegments = 32
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 1
	}
	if cfg.Shards > cfg.TapeCount {
		return nil, fmt.Errorf("fleet: %d shards need at least as many cartridges, have %d", cfg.Shards, cfg.TapeCount)
	}
	layout, err := tertiary.SweepLayout(cfg.Profile, cfg.TapeCount, cfg.Objects, cfg.ObjectSegments, cfg.Replicas)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}

	f := &Fleet{
		bases:      make([]*tertiary.Library, cfg.Shards),
		placements: make([]*tertiary.Placement, cfg.Shards),
		dir:        make(map[string][]copyGroup, len(layout)),
	}
	// Cartridge t — the primary home of layout entries t*Objects
	// onward — lives on shard t mod Shards.
	tapes := make([][]int64, cfg.Shards)
	shardOf := make(map[int64]int, cfg.TapeCount)
	for t := 0; t < cfg.TapeCount; t++ {
		serial := layout[t*cfg.Objects][0].Tape
		shardOf[serial] = t % cfg.Shards
		tapes[t%cfg.Shards] = append(tapes[t%cfg.Shards], serial)
	}

	catalogs := make([]*tertiary.Catalog, cfg.Shards)
	for s := range catalogs {
		catalogs[s] = tertiary.NewCatalog()
	}
	for _, copies := range layout {
		id := copies[0].ID
		var groups []copyGroup
		for _, obj := range copies {
			sk := shardOf[obj.Tape]
			gi := slices.IndexFunc(groups, func(g copyGroup) bool { return g.shard == sk })
			if gi < 0 {
				// First copy on this shard: the shard's catalog entry.
				groups = append(groups, copyGroup{shard: sk, serials: []int64{obj.Tape}})
				if err := catalogs[sk].Put(obj); err != nil {
					return nil, err
				}
				continue
			}
			// A later copy on a shard that already has one: a
			// same-shard replica behind its catalog entry.
			groups[gi].serials = append(groups[gi].serials, obj.Tape)
			if f.placements[sk] == nil {
				f.placements[sk] = tertiary.NewPlacement()
			}
			if err := f.placements[sk].Put(id, obj); err != nil {
				return nil, err
			}
		}
		f.dir[id] = groups
	}

	for s := 0; s < cfg.Shards; s++ {
		base, err := tertiary.New(tertiary.Config{
			Profile:   cfg.Profile,
			Tapes:     tapes[s],
			Placement: f.placements[s],
		}, catalogs[s])
		if err != nil {
			return nil, fmt.Errorf("fleet: shard %d store: %w", s, err)
		}
		f.bases[s] = base
	}
	return f, nil
}

// Shards returns the cluster size.
func (f *Fleet) Shards() int { return len(f.bases) }

// RunConfig describes one fleet run: the per-shard serving
// configuration plus the routing tier's policy and seed. Schedulers
// are not pluggable here — every shard runs the paper's Auto policy
// (use tertiary.Sweep for the scheduler axis).
type RunConfig struct {
	// Drives is the transport count per shard; 0 selects 1. MountSec
	// and UnmountSec default to 30 and 15 as in tertiary.Config.
	Drives     int
	MountSec   float64
	UnmountSec float64
	// BatchLimit, Policy, WindowSec, QueueCap, Retry and DeadlineSec
	// pass through to every shard's Config.
	BatchLimit  int
	Policy      server.BatchPolicy
	WindowSec   float64
	QueueCap    int
	Retry       sim.RetryPolicy
	DeadlineSec float64
	// Lifecycle arms component lifecycle faults on every shard; shard
	// s derives its seed as Lifecycle.Seed + 97·s so shards fail
	// independently but reproducibly.
	Lifecycle fault.LifecycleConfig
	// Cache puts an hsm staging tier in front of every shard: hits
	// complete at disk cost without consuming the shard's queue
	// capacity, misses fall through to the shard's tape path, and the
	// router sees residency via Candidate.Cached. The zero value (no
	// capacity) changes nothing: a run without a cache is bit-identical
	// to one before the field existed.
	Cache hsm.Config
	// Router picks a shard per request; nil selects LeastLoaded.
	Router Router
	// Seed drives the routing tie-break (see tieBreak); it does not
	// reseed the shards or the workload.
	Seed int64
	// Reg, when non-nil, receives every shard's metrics re-keyed
	// under shard="N" (Registry.MergeLabeled) plus the fleet's own
	// routing counters, after the run completes.
	Reg *obs.Registry
	// Labels are added to the fleet-level series and passed to every
	// shard; the sweep passes the cell coordinates here.
	Labels []obs.Label
	// Spans, when non-nil, records the run as a fleet root span with
	// every shard's run span nested under it, each shard on its own
	// lane block (shard s starts at lane 1 + s·(1+Drives)).
	Spans *obs.Tracer
	// Events, when non-nil, receives one wide event per request after
	// the run: each shard collects its own (stamped with shard, route
	// and the attribution vector) into a private ring, and the fold
	// merges them in (DoneSec, Shard, Seq) order with Labels attached
	// — the same spec-order folding the registries get, so the merged
	// log is identical at any worker count.
	Events *obs.EventRing
	// Health, when non-nil, consumes the event stream live: as the
	// arrival clock advances, every event whose terminal time has
	// passed scores its shard (key "shard=N") and serving drive (key
	// "shard=N/drive=D") in the tracker, and the router sees the
	// shard's current score as Candidate.Health at each decision.
	// Observational this PR: no built-in router reads the score.
	Health *obs.HealthTracker
}

// Metrics summarizes a fleet run across its shards.
type Metrics struct {
	// Offered is the request count; Served + Failed + Rejected + Shed
	// (summed over shards) partitions it — the conservation invariant
	// FuzzFleetRouting checks.
	Offered  int
	Served   int
	Failed   int
	Rejected int
	Shed     int
	// AffinityHits counts requests routed to a shard that already had
	// one of the object's cartridges in a drive at decision time.
	AffinityHits int
	// CrossShardReads counts requests routed off their primary shard
	// because every primary-shard copy was lost — the replica axis
	// paying off across the cluster.
	CrossShardReads int
	// Unroutable counts requests the routing tier could not place on
	// policy grounds: every copy lost, or every candidate shard scored
	// -Inf (zero headroom everywhere — the whole cluster's drives
	// down). Either way the request is still dispatched to the primary
	// shard so its accounting (a failure, a shed, or — after a repair —
	// a serve) keeps the partition exact.
	Unroutable int
	// CacheHits and CacheMisses count staging-cache lookups across the
	// fleet; both stay 0 when RunConfig.Cache is disabled. Hits are
	// included in Served.
	CacheHits   int
	CacheMisses int
	// Makespan is the latest shard makespan; MeanLatency the
	// served-weighted mean across shards; MaxLatency the cluster-wide
	// worst case.
	Makespan    float64
	MeanLatency float64
	MaxLatency  float64
}

// ShardResult is one shard's share of a fleet run.
type ShardResult struct {
	// Routed is how many requests the routing tier sent here.
	Routed int
	// Metrics and Completions are the shard's own run outcome,
	// bit-identical to what a standalone Library.Run over the same
	// request subsequence would produce. With a cache enabled,
	// Completions also holds the shard's cache hits (DriveID
	// hsm.CacheDriveID) merged in completion order, while Metrics stays
	// the tape path's view alone.
	Metrics     tertiary.Metrics
	Completions []tertiary.Completion
	// CacheHits and CacheMisses are this shard's staging-cache lookup
	// outcomes; both 0 when the fleet runs without a cache.
	CacheHits   int
	CacheMisses int
}

// decision is one routing outcome.
type decision struct {
	shard      int
	affinity   bool
	cross      bool
	unroutable bool
}

// routeName renders the decision for the request's wide event.
func (d decision) routeName() string {
	switch {
	case d.unroutable:
		return "unroutable"
	case d.cross:
		return "cross-shard"
	case d.affinity:
		return "affinity"
	}
	return "routed"
}

// eventRingAt indexes a possibly-nil ring slice: a fleet run without
// events or health hands every shard a nil (no-op) ring.
func eventRingAt(rings []*obs.EventRing, s int) *obs.EventRing {
	if rings == nil {
		return nil
	}
	return rings[s]
}

// healthFeed streams the per-shard wide-event rings into a
// HealthTracker in global virtual-time order. Shards emit events in
// their own order, and served events carry Done timestamps priced
// ahead of the clock at dispatch — so the feed buffers harvested
// events in a min-heap on (DoneSec, Shard, Seq) and releases only
// those whose terminal time the arrival clock has passed. Every event
// harvested later is emitted later and terminates no earlier, so the
// released sequence is nondecreasing in time — exactly what the
// tracker's rolling windows require.
type healthFeed struct {
	tracker   *obs.HealthTracker
	rings     []*obs.EventRing
	harvested []int64
	heap      []obs.Event
	shardKeys []string
	driveKeys map[int]string
}

func newHealthFeed(tracker *obs.HealthTracker, rings []*obs.EventRing) *healthFeed {
	hf := &healthFeed{
		tracker:   tracker,
		rings:     rings,
		harvested: make([]int64, len(rings)),
		shardKeys: make([]string, len(rings)),
		driveKeys: make(map[int]string),
	}
	for s := range rings {
		hf.shardKeys[s] = "shard=" + strconv.Itoa(s)
	}
	return hf
}

// score is the shard's current health for Candidate.Health.
func (hf *healthFeed) score(shard int) float64 {
	if hf == nil {
		return 1
	}
	return hf.tracker.Score(hf.shardKeys[shard])
}

func (hf *healthFeed) driveKey(shard, drive int) string {
	id := shard<<16 | drive
	k, ok := hf.driveKeys[id]
	if !ok {
		k = hf.shardKeys[shard] + "/drive=" + strconv.Itoa(drive)
		hf.driveKeys[id] = k
	}
	return k
}

// pump harvests each ring's new tail and scores every buffered event
// whose terminal time is at or before now.
func (hf *healthFeed) pump(now float64) {
	if hf == nil {
		return
	}
	for s, r := range hf.rings {
		tail := r.Tail(hf.harvested[s])
		hf.harvested[s] += int64(len(tail))
		for _, ev := range tail {
			hf.push(ev)
		}
	}
	for len(hf.heap) > 0 && hf.heap[0].DoneSec <= now {
		ev := hf.pop()
		good := ev.Outcome == obs.OutcomeServed
		hf.tracker.Observe(hf.shardKeys[ev.Shard], ev.DoneSec, good)
		if ev.Drive >= 0 {
			hf.tracker.Observe(hf.driveKey(ev.Shard, ev.Drive), ev.DoneSec, good)
		}
	}
}

func eventBefore(a, b obs.Event) bool {
	if a.DoneSec != b.DoneSec {
		return a.DoneSec < b.DoneSec
	}
	if a.Shard != b.Shard {
		return a.Shard < b.Shard
	}
	return a.Seq < b.Seq
}

func (hf *healthFeed) push(ev obs.Event) {
	hf.heap = append(hf.heap, ev)
	i := len(hf.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventBefore(hf.heap[i], hf.heap[parent]) {
			break
		}
		hf.heap[i], hf.heap[parent] = hf.heap[parent], hf.heap[i]
		i = parent
	}
}

func (hf *healthFeed) pop() obs.Event {
	top := hf.heap[0]
	n := len(hf.heap) - 1
	hf.heap[0] = hf.heap[n]
	hf.heap[n] = obs.Event{} // clear the vacated tail slot
	hf.heap = hf.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && eventBefore(hf.heap[l], hf.heap[small]) {
			small = l
		}
		if r < n && eventBefore(hf.heap[r], hf.heap[small]) {
			small = r
		}
		if small == i {
			break
		}
		hf.heap[i], hf.heap[small] = hf.heap[small], hf.heap[i]
		i = small
	}
	return top
}

// Run serves the stream through the routing tier: every shard's event
// loop advances in lockstep with the arrival clock, the router scores
// the shards holding a live copy of each request's object, and the
// request joins the winner's arrival stream. Requests must be sorted
// by arrival time. The run is fully deterministic: same fleet, config
// and stream — same result, bit for bit.
func (f *Fleet) Run(cfg RunConfig, stream []tertiary.Request) ([]ShardResult, Metrics, error) {
	router := cfg.Router
	if router == nil {
		router = LeastLoaded{}
	}
	if cfg.Drives < 0 {
		return nil, Metrics{}, fmt.Errorf("fleet: Drives %d is negative (0 selects 1)", cfg.Drives)
	}
	drives := max(cfg.Drives, 1)
	for i, r := range stream {
		if math.IsNaN(r.Arrival) {
			return nil, Metrics{}, fmt.Errorf("fleet: request %d arrives at NaN", i)
		}
	}

	var trace *obs.TraceHandle
	var root *obs.SpanHandle
	if cfg.Spans != nil {
		trace = cfg.Spans.StartTrace()
		root = trace.Start("fleet", nil, 0).
			Attr("router", router.Name()).
			AttrInt("shards", len(f.bases)).
			AttrInt("drives", drives)
	}
	var regs []*obs.Registry
	if cfg.Reg != nil {
		regs = make([]*obs.Registry, len(f.bases))
		for s := range regs {
			regs[s] = obs.NewRegistry()
		}
	}
	// Wide events feed two consumers: the caller's merged ring (the
	// post-run fold) and the live health plane. Either one arms the
	// per-shard rings; each ring is big enough that nothing drops, so
	// the fold and the feed both see every terminal outcome.
	var rings []*obs.EventRing
	if cfg.Events != nil || cfg.Health != nil {
		rings = make([]*obs.EventRing, len(f.bases))
		cap := len(stream)
		if cap < 1 {
			cap = 1
		}
		for s := range rings {
			rings[s] = obs.NewEventRing(cap)
		}
	}
	var hf *healthFeed
	if cfg.Health != nil {
		hf = newHealthFeed(cfg.Health, rings)
	}

	// Every shard library is wrapped in an hsm staging tier. With
	// cfg.Cache disabled the tier is a strict pass-through — no cache,
	// no extra metrics, every call delegated to the shard's Runner —
	// so the no-cache fleet path is bit-identical to the pre-cache one.
	tiers := make([]*hsm.Tier, len(f.bases))
	runners := make([]*tertiary.Runner, len(f.bases))
	for s := range runners {
		lc := cfg.Lifecycle
		if lc.Enabled() {
			lc.Seed += int64(s) * 97
		}
		var reg *obs.Registry
		if regs != nil {
			reg = regs[s]
		}
		lib := f.bases[s].Clone(tertiary.Config{
			Drives:      drives,
			MountSec:    cfg.MountSec,
			UnmountSec:  cfg.UnmountSec,
			BatchLimit:  cfg.BatchLimit,
			Policy:      cfg.Policy,
			WindowSec:   cfg.WindowSec,
			QueueCap:    cfg.QueueCap,
			Retry:       cfg.Retry,
			Lifecycle:   lc,
			Placement:   f.placements[s],
			DeadlineSec: cfg.DeadlineSec,
			Reg:         reg,
			Labels:      cfg.Labels,
			SpanTrace:   trace,
			SpanParent:  root,
			Lane:        1 + s*(1+drives),
			Events:      eventRingAt(rings, s),
			Shard:       s,
		})
		tier, err := hsm.NewTier(lib, cfg.Cache)
		if err != nil {
			return nil, Metrics{}, fmt.Errorf("fleet: shard %d: %w", s, err)
		}
		tiers[s] = tier
		runners[s] = tier.Runner()
	}

	res := make([]ShardResult, len(f.bases))
	m := Metrics{Offered: len(stream)}
	for i := 0; i < len(stream); {
		at := stream[i].Arrival
		for s := range tiers {
			if err := tiers[s].AdvanceTo(at); err != nil {
				return nil, Metrics{}, fmt.Errorf("fleet: shard %d: %w", s, err)
			}
		}
		// Score every event whose terminal time the clock has now
		// passed, so the router's Candidate.Health reflects outcomes up
		// to — and only up to — this instant.
		hf.pump(at)
		// Route every request carrying this timestamp before advancing
		// again: a shard's event loop must see all of an instant's
		// arrivals before it dispatches at that instant, exactly as a
		// monolithic Run would.
		for ; i < len(stream) && stream[i].Arrival == at; i++ {
			d, err := f.route(router, cfg.Seed, i, stream[i], runners, tiers, hf)
			if err != nil {
				return nil, Metrics{}, err
			}
			if d.affinity {
				m.AffinityHits++
			}
			if d.cross {
				m.CrossShardReads++
			}
			if d.unroutable {
				m.Unroutable++
			}
			if err := tiers[d.shard].OfferRouted(stream[i], d.routeName()); err != nil {
				return nil, Metrics{}, fmt.Errorf("fleet: shard %d: %w", d.shard, err)
			}
			res[d.shard].Routed++
		}
	}

	var latSum float64
	for s := range tiers {
		comps, tm, err := tiers[s].Finish()
		if err != nil {
			return nil, Metrics{}, fmt.Errorf("fleet: shard %d: %w", s, err)
		}
		sm := tm.Lib
		res[s].Metrics = sm
		res[s].Completions = comps
		res[s].CacheHits = tm.Hits
		res[s].CacheMisses = tm.Misses
		m.Served += tm.Served()
		m.Failed += sm.Failed
		m.Rejected += sm.Rejected
		m.Shed += sm.Shed
		m.CacheHits += tm.Hits
		m.CacheMisses += tm.Misses
		if tm.Makespan > m.Makespan {
			m.Makespan = tm.Makespan
		}
		if sm.MaxLatency > m.MaxLatency {
			m.MaxLatency = sm.MaxLatency
		}
		if tm.MaxHitSojourn > m.MaxLatency {
			m.MaxLatency = tm.MaxHitSojourn
		}
		// Hits contribute their (disk-cost) sojourns to the fleet mean;
		// with the cache disabled both terms past the tape path's are 0
		// and the sum is the pre-cache expression exactly.
		latSum += sm.MeanLatency*float64(sm.Served) + tm.HitSojournSec
	}
	if m.Served > 0 {
		m.MeanLatency = latSum / float64(m.Served)
	}
	if root != nil {
		root.AttrInt("served", m.Served)
		root.End(m.Makespan)
	}
	// Drain the health feed: the arrival clock stopped at the last
	// arrival, but served events terminate after it.
	hf.pump(math.Inf(1))
	if cfg.Events != nil {
		// Fold the per-shard logs into one stream ordered by terminal
		// time, exactly as the registries fold in spec order: the merged
		// log is a pure function of the run, identical at any worker
		// count. Per-shard Seqs survive the fold (the caller's ring only
		// stamps zero Seqs), so (Shard, Seq) still names the source slot.
		n := 0
		for _, r := range rings {
			n += int(r.Total() - r.Dropped())
		}
		all := make([]obs.Event, 0, n)
		for _, r := range rings {
			all = r.AppendEvents(all)
		}
		sort.Slice(all, func(i, j int) bool { return eventBefore(all[i], all[j]) })
		for _, ev := range all {
			if len(cfg.Labels) > 0 {
				ev.Labels = append([]obs.Label(nil), cfg.Labels...)
			}
			cfg.Events.Add(ev)
		}
	}
	if cfg.Reg != nil {
		for s, reg := range regs {
			cfg.Reg.MergeLabeled(reg, obs.L("shard", strconv.Itoa(s)))
		}
		cfg.Reg.Counter("fleet_offered_total", cfg.Labels...).Add(int64(m.Offered))
		cfg.Reg.Counter("fleet_affinity_hits_total", cfg.Labels...).Add(int64(m.AffinityHits))
		cfg.Reg.Counter("fleet_cross_shard_reads_total", cfg.Labels...).Add(int64(m.CrossShardReads))
		cfg.Reg.Counter("fleet_unroutable_total", cfg.Labels...).Add(int64(m.Unroutable))
		if cfg.Cache.Enabled() {
			cfg.Reg.Counter("fleet_cache_hits_total", cfg.Labels...).Add(int64(m.CacheHits))
			cfg.Reg.Counter("fleet_cache_misses_total", cfg.Labels...).Add(int64(m.CacheMisses))
		}
		for s := range res {
			labels := append(append([]obs.Label(nil), cfg.Labels...), obs.L("shard", strconv.Itoa(s)))
			cfg.Reg.Counter("fleet_routed_total", labels...).Add(int64(res[s].Routed))
		}
	}
	return res, m, nil
}

// route scores the shards holding a live copy of the request's object
// and picks the best, breaking score ties by a pure function of
// (seed, request ordinal).
func (f *Fleet) route(router Router, seed int64, ordinal int, req tertiary.Request, runners []*tertiary.Runner, tiers []*hsm.Tier, hf *healthFeed) (decision, error) {
	groups := f.dir[req.ObjectID]
	if len(groups) == 0 {
		return decision{}, fmt.Errorf("fleet: request for unknown object %q", req.ObjectID)
	}
	cands := make([]Candidate, 0, len(groups))
	primaryAlive := false
	for gi, g := range groups {
		r := runners[g.shard]
		alive, mounted := false, false
		for _, serial := range g.serials {
			if r.CartridgeLost(serial) {
				continue
			}
			alive = true
			if r.Mounted(serial) {
				mounted = true
			}
		}
		if !alive {
			continue
		}
		if gi == 0 {
			primaryAlive = true
		}
		cands = append(cands, Candidate{
			Shard:      g.shard,
			QueueDepth: r.QueueDepth(),
			Headroom:   r.Headroom(),
			Mounted:    mounted,
			Cached:     tiers[g.shard].Cached(req.ObjectID),
			Primary:    gi == 0,
			Health:     hf.score(g.shard),
		})
	}
	if len(cands) == 0 {
		// Every copy is lost. Dispatch to the primary shard anyway:
		// the shard fails the request in its own accounting, so
		// Served+Failed+Rejected+Shed still partitions the offered
		// stream.
		return decision{shard: groups[0].shard, unroutable: true}, nil
	}
	scores := make([]float64, len(cands))
	router.Score(ordinal, len(runners), cands, scores)
	idx, ok := pickBest(scores, seed, ordinal)
	if !ok {
		// Every candidate shard scored -Inf: all of them have zero
		// headroom (every drive down). Routing "arbitrarily" here would
		// mean the tie-break, not the policy, picked the shard — so
		// treat it like the all-copies-lost case instead: dispatch to
		// the primary shard, whose own breaker sheds or serves it, and
		// the partition stays exact.
		return decision{shard: groups[0].shard, unroutable: true}, nil
	}
	pick := cands[idx]
	return decision{
		shard:    pick.Shard,
		affinity: pick.Mounted,
		cross:    !pick.Primary && !primaryAlive,
	}, nil
}

// pickBest selects the index of the best-scored candidate, resolving
// exact score ties by tieBreak(seed, ordinal). ok is false when even
// the best score is -Inf — every candidate shard has zero live
// capacity — and the caller must fall back to the unroutable path
// rather than let the tie-break choose among equally dead shards.
func pickBest(scores []float64, seed int64, ordinal int) (int, bool) {
	ties := []int{0}
	best := scores[0]
	for j := 1; j < len(scores); j++ {
		switch {
		case scores[j] > best:
			best = scores[j]
			ties = ties[:1]
			ties[0] = j
		case scores[j] == best:
			ties = append(ties, j)
		}
	}
	if math.IsInf(best, -1) {
		return 0, false
	}
	return ties[tieBreak(seed, ordinal, len(ties))], true
}
