package locate

import (
	"math"
	"sync"
	"testing"

	"serpentine/internal/geometry"
)

// cartridgeCount is the number of (profile, serial) entries interned.
func cartridgeCount() int {
	n := 0
	cartridges.Range(func(_, _ any) bool { n++; return true })
	return n
}

// Many goroutines loading one key must share one Cartridge, one tape,
// one nominal model and one truth model, and evaluate the shared
// models concurrently. Run under -race (make race) this also checks
// the lazy truth build.
func TestLoadSharesOneCartridgeAcrossGoroutines(t *testing.T) {
	const n = 16
	p := geometry.Tiny()
	p.Name = "Tiny-race"
	carts := make([]*Cartridge, n)
	truths := make([]*Model, n)
	sums := make([]float64, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Load(p, 77)
			if err != nil {
				t.Error(err)
				return
			}
			carts[g], truths[g] = c, c.Truth()
			segs := c.Model().Segments()
			for src := 0; src < segs; src += 7 {
				dst := (src*31 + g) % segs
				sums[g] += c.Model().LocateTime(src, dst) + c.Truth().LocateTime(src, dst)
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < n; g++ {
		if carts[g] != carts[0] || truths[g] != truths[0] {
			t.Fatalf("goroutine %d got cartridge %p truth %p, goroutine 0 got %p %p",
				g, carts[g], truths[g], carts[0], truths[0])
		}
	}
	if carts[0].Tape() == nil || carts[0].Model() == nil || truths[0] == nil || truths[0] == carts[0].Model() {
		t.Fatal("cartridge is missing a tape, a model or a distinct truth model")
	}
	for g, s := range sums {
		if !(s > 0) {
			t.Fatalf("goroutine %d summed %g s of locates", g, s)
		}
	}
}

// The intern is keyed by the whole profile, not just the serial, and
// a cartridge equals a fresh Generate of its pair.
func TestLoadKeysOnProfileAndSerial(t *testing.T) {
	a, err := Load(geometry.Tiny(), 5)
	if err != nil {
		t.Fatal(err)
	}
	flat := geometry.Tiny()
	flat.PersonalityFrac = 0
	b, err := Load(flat, 5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Load(geometry.Tiny(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || a == c || b == c {
		t.Fatal("distinct (profile, serial) pairs share a cartridge")
	}
	fresh := geometry.MustGenerate(geometry.Tiny(), 5)
	ar, as, ao := a.Tape().Personality()
	fr, fs, fo := fresh.Personality()
	if a.Tape().String() != fresh.String() || ar != fr || as != fs || ao != fo {
		t.Fatalf("interned tape %v differs from a fresh Generate %v", a.Tape(), fresh)
	}
	m, err := FromKeyPoints(fresh.KeyPoints())
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < m.Segments(); src += 13 {
		dst := m.Segments() - 1 - src
		if got, want := a.Model().LocateTime(src, dst), m.LocateTime(src, dst); got != want {
			t.Fatalf("LocateTime(%d,%d) = %g, fresh model %g", src, dst, got, want)
		}
	}
}

// An invalid profile is an error and leaves no entry behind; a NaN
// field in particular would otherwise add one entry per call, since a
// NaN key never equals itself.
func TestLoadRejectsInvalidProfileWithoutStoring(t *testing.T) {
	before := cartridgeCount()
	for i := 0; i < 3; i++ {
		p := geometry.Tiny()
		p.OverheadSec = math.NaN()
		if _, err := Load(p, 1); err == nil {
			t.Fatal("NaN OverheadSec accepted")
		}
		p = geometry.Tiny()
		p.Tracks = 0
		if _, err := Load(p, 1); err == nil {
			t.Fatal("zero Tracks accepted")
		}
	}
	if after := cartridgeCount(); after != before {
		t.Fatalf("intern grew from %d to %d entries on invalid profiles", before, after)
	}
}
