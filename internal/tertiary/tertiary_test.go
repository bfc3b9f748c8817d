package tertiary

import (
	"fmt"
	"math"
	"testing"

	"serpentine/internal/core"
	"serpentine/internal/geometry"
)

// smallCfg keeps library tests fast: the Tiny geometry.
func smallCfg(drives int) Config {
	return Config{
		Profile: geometry.Tiny(),
		Tapes:   []int64{101, 102},
		Drives:  drives,
	}
}

func smallCatalog(t testing.TB, cfg Config, perTape int) *Catalog {
	t.Helper()
	c := NewCatalog()
	for _, serial := range cfg.Tapes {
		tape := geometry.MustGenerate(cfg.Profile, serial)
		stride := tape.Segments() / perTape
		for i := 0; i < perTape; i++ {
			if err := c.Put(Object{
				ID:    fmt.Sprintf("t%d/o%d", serial, i),
				Tape:  serial,
				Start: i * stride,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

func TestCatalogBasics(t *testing.T) {
	c := NewCatalog()
	if err := c.Put(Object{}); err == nil {
		t.Fatal("empty ID accepted")
	}
	if err := c.Put(Object{ID: "x", Tape: 1, Start: 5}); err != nil {
		t.Fatal(err)
	}
	if o, ok := c.Get("x"); !ok || o.Start != 5 {
		t.Fatal("Get failed")
	}
	if _, ok := c.Get("y"); ok {
		t.Fatal("phantom object")
	}
	if c.Len() != 1 {
		t.Fatal("Len wrong")
	}
}

func TestNewLibraryValidation(t *testing.T) {
	cfg := smallCfg(1)
	cat := smallCatalog(t, cfg, 10)

	if _, err := New(Config{Profile: cfg.Profile}, cat); err == nil {
		t.Fatal("no tapes accepted")
	}
	if _, err := New(cfg, NewCatalog()); err == nil {
		t.Fatal("empty catalog accepted")
	}

	badTape := smallCatalog(t, cfg, 2)
	badTape.Put(Object{ID: "bad", Tape: 999, Start: 0})
	if _, err := New(cfg, badTape); err == nil {
		t.Fatal("object on unknown tape accepted")
	}

	badExtent := smallCatalog(t, cfg, 2)
	badExtent.Put(Object{ID: "bad", Tape: 101, Start: 1 << 30})
	if _, err := New(cfg, badExtent); err == nil {
		t.Fatal("out-of-range extent accepted")
	}
}

// A library built by Clone skips New, so every run re-checks the
// config: Run and StartRun must reject the rates New would, instead of
// running a NaN rate as no faults and a rate of 2 as a certain loss.
func TestCloneRunsRejectInvalidConfig(t *testing.T) {
	cfg := smallCfg(1)
	base, err := New(cfg, smallCatalog(t, cfg, 4))
	if err != nil {
		t.Fatal(err)
	}
	stream := []Request{{ObjectID: "t101/o0"}, {ObjectID: "t102/o1", Arrival: 5}}
	for _, c := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"cartridge loss NaN", func(c *Config) { c.Lifecycle.CartridgeLossRate = math.NaN() }},
		{"cartridge loss 2", func(c *Config) { c.Lifecycle.CartridgeLossRate = 2 }},
		{"fault rate NaN", func(c *Config) { c.Faults.TransientRate = math.NaN() }},
	} {
		bad := cfg
		c.mutate(&bad)
		lib := base.Clone(bad)
		if _, _, err := lib.Run(stream); err == nil {
			t.Errorf("%s: Run accepted the clone", c.name)
		}
		if _, err := lib.StartRun(); err == nil {
			t.Errorf("%s: StartRun accepted the clone", c.name)
		}
	}
}

func TestRunServesEverything(t *testing.T) {
	cfg := smallCfg(1)
	cat := smallCatalog(t, cfg, 20)
	lib, err := New(cfg, cat)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []Request
	for _, serial := range cfg.Tapes {
		for i := 0; i < 10; i++ {
			reqs = append(reqs, Request{ObjectID: fmt.Sprintf("t%d/o%d", serial, i)})
		}
	}
	done, m, err := lib.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != len(reqs) || m.Served != len(reqs) {
		t.Fatalf("served %d of %d", len(done), len(reqs))
	}
	if m.Makespan <= 0 || m.Mounts < 2 || m.BytesRead <= 0 {
		t.Fatalf("bad metrics: %+v", m)
	}
	// Completions are sorted by completion time, each after arrival.
	for i, c := range done {
		if c.Latency() < 0 {
			t.Fatalf("negative latency: %+v", c)
		}
		if i > 0 && c.Done < done[i-1].Done {
			t.Fatal("completions out of order")
		}
	}
	if m.IOsPerHour() <= 0 {
		t.Fatal("IOsPerHour should be positive")
	}
}

func TestRunRejectsUnknownObject(t *testing.T) {
	cfg := smallCfg(1)
	lib, err := New(cfg, smallCatalog(t, cfg, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := lib.Run([]Request{{ObjectID: "nope"}}); err == nil {
		t.Fatal("unknown object accepted")
	}
}

// Two drives should beat one on a two-tape workload.
func TestMultipleDrivesReduceMakespan(t *testing.T) {
	var spans [2]float64
	for i, drives := range []int{1, 2} {
		cfg := smallCfg(drives)
		lib, err := New(cfg, smallCatalog(t, cfg, 30))
		if err != nil {
			t.Fatal(err)
		}
		var reqs []Request
		for _, serial := range cfg.Tapes {
			for j := 0; j < 30; j++ {
				reqs = append(reqs, Request{ObjectID: fmt.Sprintf("t%d/o%d", serial, j)})
			}
		}
		_, m, err := lib.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		spans[i] = m.Makespan
	}
	if spans[1] >= spans[0] {
		t.Fatalf("2 drives (%.0f s) not faster than 1 (%.0f s)", spans[1], spans[0])
	}
}

// The scheduled policy must beat FIFO service order on a random
// batch: the library exists to batch and schedule.
func TestSchedulingBeatsFIFOInLibrary(t *testing.T) {
	var spans [2]float64
	for i, sched := range []core.Scheduler{core.FIFO{}, core.NewAuto()} {
		cfg := smallCfg(1)
		cfg.Scheduler = sched
		lib, err := New(cfg, smallCatalog(t, cfg, 40))
		if err != nil {
			t.Fatal(err)
		}
		var reqs []Request
		for j := 0; j < 40; j++ {
			// Scatter request order so FIFO is genuinely random.
			reqs = append(reqs, Request{ObjectID: fmt.Sprintf("t101/o%d", (j*17)%40)})
		}
		_, m, err := lib.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		spans[i] = m.Makespan
	}
	if spans[1] >= spans[0] {
		t.Fatalf("Auto (%.0f s) not faster than FIFO (%.0f s)", spans[1], spans[0])
	}
}

func TestBatchLimitRespected(t *testing.T) {
	cfg := smallCfg(1)
	cfg.BatchLimit = 5
	lib, err := New(cfg, smallCatalog(t, cfg, 20))
	if err != nil {
		t.Fatal(err)
	}
	var reqs []Request
	for j := 0; j < 20; j++ {
		reqs = append(reqs, Request{ObjectID: fmt.Sprintf("t101/o%d", j)})
	}
	_, m, err := lib.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Batches < 4 {
		t.Fatalf("20 requests with batch limit 5 ran in %d batches", m.Batches)
	}
}

// Arrivals matter: a request that arrives late cannot complete early.
func TestArrivalsRespected(t *testing.T) {
	cfg := smallCfg(1)
	lib, err := New(cfg, smallCatalog(t, cfg, 10))
	if err != nil {
		t.Fatal(err)
	}
	reqs := []Request{
		{ObjectID: "t101/o1", Arrival: 0},
		{ObjectID: "t101/o2", Arrival: 50000},
	}
	done, _, err := lib.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range done {
		if c.Done < c.Arrival {
			t.Fatalf("completed before arrival: %+v", c)
		}
	}
}

func TestMultiSegmentObjects(t *testing.T) {
	cfg := smallCfg(1)
	cat := NewCatalog()
	tape := geometry.MustGenerate(cfg.Profile, 101)
	cat.Put(Object{ID: "big", Tape: 101, Start: 0, Segments: 50})
	cat.Put(Object{ID: "small", Tape: 101, Start: tape.Segments() / 2})
	lib, err := New(Config{Profile: cfg.Profile, Tapes: []int64{101}}, cat)
	if err != nil {
		t.Fatal(err)
	}
	done, m, err := lib.Run([]Request{{ObjectID: "big"}, {ObjectID: "small"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 {
		t.Fatalf("served %d", len(done))
	}
	wantBytes := int64(51) * cfg.Profile.SegmentBytes
	if m.BytesRead != wantBytes {
		t.Fatalf("bytes read %d, want %d", m.BytesRead, wantBytes)
	}
}

func TestTapesAccessor(t *testing.T) {
	cfg := smallCfg(1)
	lib, err := New(cfg, smallCatalog(t, cfg, 2))
	if err != nil {
		t.Fatal(err)
	}
	got := lib.Tapes()
	if len(got) != 2 || got[0] != 101 || got[1] != 102 {
		t.Fatalf("Tapes() = %v", got)
	}
}
