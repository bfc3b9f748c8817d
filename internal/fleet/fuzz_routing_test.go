package fleet

import (
	"testing"

	"serpentine/internal/fault"
	"serpentine/internal/geometry"
	"serpentine/internal/tertiary"
)

// fuzzFleets builds one small cluster store per shard count, shared
// read-only across fuzz iterations the way Sweep shares them across
// cells. Tiny-profile tapes keep each iteration cheap.
func fuzzFleets(f *testing.F) map[int]*Fleet {
	fleets := make(map[int]*Fleet, 4)
	for s := 1; s <= 4; s++ {
		fl, err := New(StoreConfig{
			Profile:        geometry.Tiny(),
			Shards:         s,
			TapeCount:      4,
			Objects:        16,
			ObjectSegments: 2,
			Replicas:       2,
		})
		if err != nil {
			f.Fatal(err)
		}
		fleets[s] = fl
	}
	return fleets
}

// FuzzFleetRouting drives the routing tier with arbitrary (seed, rate,
// shard count, policy, locality, loss) combinations and checks the
// cluster-wide conservation law: every offered request is routed to
// exactly one shard and lands in exactly one of served, failed,
// rejected or shed — per shard and in the fleet aggregate — even when
// cartridge loss forces cross-shard replica reads or leaves an object
// with no live copy at all. Each cell also runs twice to pin that
// routing is a pure function of its inputs.
func FuzzFleetRouting(f *testing.F) {
	fleets := fuzzFleets(f)

	f.Add(int64(42), byte(10), byte(2), byte(3), byte(0), byte(30), byte(0))
	f.Add(int64(7), byte(40), byte(4), byte(2), byte(80), byte(50), byte(20))
	f.Add(int64(-3), byte(1), byte(1), byte(0), byte(0), byte(1), byte(0))
	f.Add(int64(99), byte(200), byte(3), byte(1), byte(50), byte(60), byte(29))

	routers := []Router{PassThrough{}, RoundRobin{}, LeastLoaded{}, Affinity{}}
	f.Fuzz(func(t *testing.T, seed int64, rateCode, shardCode, routerCode, locCode, nCode, lossCode byte) {
		rate := 30 + float64(rateCode)*8
		shards := 1 + int(shardCode)%4
		router := routers[int(routerCode)%len(routers)]
		locality := float64(int(locCode)%100) / 100
		n := 1 + int(nCode)%60
		loss := float64(int(lossCode)%30) / 100

		stream, err := tertiary.SweepStream(rate, n, seed, 4, 16, locality)
		if err != nil {
			t.Fatal(err)
		}
		cfg := RunConfig{
			Drives:      2,
			BatchLimit:  8,
			QueueCap:    6,
			DeadlineSec: 2500,
			Router:      router,
			Seed:        seed,
		}
		if loss > 0 {
			cfg.Lifecycle = fault.LifecycleConfig{CartridgeLossRate: loss, Seed: seed + 5}
		}
		res, m, err := fleets[shards].Run(cfg, stream)
		if err != nil {
			t.Fatal(err)
		}

		if m.Offered != n {
			t.Fatalf("offered %d of %d requests", m.Offered, n)
		}
		if got := m.Served + m.Failed + m.Rejected + m.Shed; got != n {
			t.Fatalf("fleet conservation broken: served %d + failed %d + rejected %d + shed %d = %d != %d offered",
				m.Served, m.Failed, m.Rejected, m.Shed, got, n)
		}
		var routed, served, failed, rejected, shed int
		for s, sr := range res {
			routed += sr.Routed
			served += sr.Metrics.Served
			failed += sr.Metrics.Failed
			rejected += sr.Metrics.Rejected
			shed += sr.Metrics.Shed
			if got := sr.Metrics.Served + sr.Metrics.Failed + sr.Metrics.Rejected + sr.Metrics.Shed; got != sr.Routed {
				t.Fatalf("shard %d conservation broken: outcomes %d != routed %d", s, got, sr.Routed)
			}
		}
		if routed != n {
			t.Fatalf("routed %d of %d requests", routed, n)
		}
		if served != m.Served || failed != m.Failed || rejected != m.Rejected || shed != m.Shed {
			t.Fatalf("shard sums (%d %d %d %d) disagree with fleet (%d %d %d %d)",
				served, failed, rejected, shed, m.Served, m.Failed, m.Rejected, m.Shed)
		}
		if m.AffinityHits > n || m.CrossShardReads > n || m.Unroutable > n {
			t.Fatalf("routing counters exceed offered: affinity %d xshard %d unroutable %d > %d",
				m.AffinityHits, m.CrossShardReads, m.Unroutable, n)
		}
		if m.Makespan < 0 {
			t.Fatalf("negative makespan %g", m.Makespan)
		}

		// Routing is a pure function of (store, config, stream): the
		// same cell replayed is bit-identical, shard by shard.
		res2, m2, err := fleets[shards].Run(cfg, stream)
		if err != nil {
			t.Fatal(err)
		}
		if m2 != m {
			t.Fatalf("replay diverged: %+v then %+v", m, m2)
		}
		for s := range res {
			if res2[s].Routed != res[s].Routed || res2[s].Metrics != res[s].Metrics {
				t.Fatalf("shard %d replay diverged: routed %d/%d", s, res[s].Routed, res2[s].Routed)
			}
		}
	})
}

// TestAllDrivesDeadRoutesToPrimary pins the router's dead-cluster
// fallback: when every candidate shard has zero headroom, every score
// is -Inf, and the request must go to its primary shard as an
// unroutable dispatch — not to whichever dead shard the tie-break
// lands on — where the shard's open breaker sheds it and conservation
// holds.
func TestAllDrivesDeadRoutesToPrimary(t *testing.T) {
	fl, err := New(StoreConfig{
		Profile:        geometry.Tiny(),
		Shards:         2,
		TapeCount:      4,
		Objects:        16,
		ObjectSegments: 2,
		Replicas:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Short-lived drives, effectively never repaired: by the arrival
	// time every drive in the cluster is down.
	cfg := RunConfig{
		Drives: 2,
		Lifecycle: fault.LifecycleConfig{
			DriveMTTFSec: 60,
			DriveMTTRSec: 1e12,
		},
		Router: LeastLoaded{},
		Seed:   1,
	}
	// Headroom is a probe of each shard's event loop, updated as the
	// loop processes offers — an idle loop reports its last observed
	// state. By 100000s every drive is dead (mean life 60s, repair
	// effectively never), so each warm-up opens the breaker of
	// whichever shard it lands on: the first goes to either shard
	// (both still look closed) and opens it, which forces the second
	// to the other shard and opens that one too. The probed arrivals
	// then see zero headroom everywhere — every score -Inf.
	warmups := 2
	stream := []tertiary.Request{
		{ObjectID: "t0/o0", Arrival: 100000}, // warm-up: opens one shard's breaker
		{ObjectID: "t1/o0", Arrival: 100001}, // warm-up: opens the other's
		{ObjectID: "t0/o1", Arrival: 200000}, // primary copy on tape 0 → shard 0
		{ObjectID: "t1/o3", Arrival: 200000}, // primary copy on tape 1 → shard 1
		{ObjectID: "t2/o5", Arrival: 200001}, // tape 2 → shard 0
	}
	res, m, err := fl.Run(cfg, stream)
	if err != nil {
		t.Fatal(err)
	}
	probed := len(stream) - warmups
	if m.Unroutable != probed {
		t.Fatalf("unroutable=%d, want %d (all drives down)", m.Unroutable, probed)
	}
	if res[0].Routed < 2 || res[1].Routed < 1 {
		t.Fatalf("routed %d/%d across shards: probed requests missing from their primary shards",
			res[0].Routed, res[1].Routed)
	}
	if got := m.Served + m.Failed + m.Rejected + m.Shed; got != len(stream) {
		t.Fatalf("conservation broken on a dead cluster: outcomes %d != offered %d", got, len(stream))
	}
	if m.Shed < probed {
		t.Fatalf("shed=%d, want at least %d (open breakers shed everything probed)", m.Shed, probed)
	}
}
