package tertiary

import (
	"fmt"
	"sort"
	"testing"

	"serpentine/internal/geometry"
)

// tapeSegments returns the DLT4000 segment count of every serial a
// layout uses, generating each cartridge once.
func tapeSegments(t testing.TB, layout [][]Object) map[int64]int {
	t.Helper()
	segs := make(map[int64]int)
	for _, copies := range layout {
		for _, c := range copies {
			if _, ok := segs[c.Tape]; ok {
				continue
			}
			tape, err := geometry.Generate(geometry.DLT4000(), c.Tape)
			if err != nil {
				t.Fatal(err)
			}
			segs[c.Tape] = tape.Segments()
		}
	}
	return segs
}

// checkSweepLayout asserts SweepLayout's contract: the requested
// shape, every extent inside its tape, the extents on one cartridge
// pairwise disjoint, and an object's copies on distinct cartridges
// under one ID.
func checkSweepLayout(t testing.TB, layout [][]Object, tapeCount, objects, objSegs, replicas int) {
	t.Helper()
	if len(layout) != tapeCount*objects {
		t.Fatalf("%d objects laid out, want %d×%d", len(layout), tapeCount, objects)
	}
	segs := tapeSegments(t, layout)
	if len(segs) != tapeCount {
		t.Fatalf("layout uses %d cartridges, want %d", len(segs), tapeCount)
	}
	perTape := make(map[int64][]Object)
	for i, copies := range layout {
		if len(copies) != replicas {
			t.Fatalf("object %d has %d copies, want %d", i, len(copies), replicas)
		}
		held := make(map[int64]bool, replicas)
		for k, c := range copies {
			if c.ID != copies[0].ID {
				t.Fatalf("object %d copy %d named %q, copy 0 %q", i, k, c.ID, copies[0].ID)
			}
			if c.Segments != objSegs || c.Start < 0 || c.Start+c.Segments > segs[c.Tape] {
				t.Fatalf("%s copy %d extent [%d,+%d) outside tape %d of %d segments",
					c.ID, k, c.Start, c.Segments, c.Tape, segs[c.Tape])
			}
			if held[c.Tape] {
				t.Fatalf("%s has two copies on tape %d", c.ID, c.Tape)
			}
			held[c.Tape] = true
			perTape[c.Tape] = append(perTape[c.Tape], c)
		}
	}
	for serial, exts := range perTape {
		sort.Slice(exts, func(i, j int) bool { return exts[i].Start < exts[j].Start })
		for i := 1; i < len(exts); i++ {
			if prev := exts[i-1]; prev.Start+prev.Segments > exts[i].Start {
				t.Fatalf("tape %d: %s [%d,+%d) overlaps %s at %d",
					serial, prev.ID, prev.Start, prev.Segments, exts[i].ID, exts[i].Start)
			}
		}
	}
}

// Cartridges differ in length, so a copy must sit in the stride of the
// tape that holds it. Placing copy k at its origin tape's stride — the
// availability sweep's old rule — lays 7 replica extents over other
// objects' extents in the default 4×64×32 R=2 store (copy 1 of t0/o1
// at segment 9746 of serial 3001, inside t1/o1's primary at 9729).
func TestSweepLayoutDisjoint(t *testing.T) {
	for _, tapes := range []int{4, 8} {
		for _, objects := range []int{64, 256, 512} {
			for _, r := range []int{1, 2, 3} {
				t.Run(fmt.Sprintf("T%d/objects%d/R%d", tapes, objects, r), func(t *testing.T) {
					layout, err := SweepLayout(geometry.Params{}, tapes, objects, 32, r)
					if err != nil {
						t.Fatal(err)
					}
					checkSweepLayout(t, layout, tapes, objects, 32, r)
				})
			}
		}
	}
}

// The single-copy layout is the one SweepStore catalogues: the
// library and staging-tier sweeps and the fleet share object names
// and extents.
func TestSweepStoreCataloguesLayout(t *testing.T) {
	layout, err := SweepLayout(geometry.DLT4000(), 3, 16, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := SweepStore(geometry.DLT4000(), 3, 16, 8, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := lib.Tapes(); len(got) != 3 || got[0] != layout[0][0].Tape {
		t.Fatalf("store tapes %v, layout starts on %d", got, layout[0][0].Tape)
	}
	for _, copies := range layout {
		got, ok := lib.catalog.Get(copies[0].ID)
		if !ok || got != copies[0] {
			t.Fatalf("catalog has %+v for %+v", got, copies[0])
		}
	}
}

func TestSweepLayoutRejectsBadShapes(t *testing.T) {
	for _, c := range []struct{ tapes, objects, segs, r int }{
		{0, 64, 32, 1}, {4, 0, 32, 1}, {4, 64, 0, 1}, {-4, 64, 32, 1},
		{4, 64, 32, 0}, {4, 64, 32, 5},
		{4, 64, 10000, 1}, {4, 64, 5000, 2}, // overflow the stride
	} {
		if _, err := SweepLayout(geometry.DLT4000(), c.tapes, c.objects, c.segs, c.r); err == nil {
			t.Errorf("SweepLayout(%d, %d, %d, %d) accepted", c.tapes, c.objects, c.segs, c.r)
		}
	}
}

// Any shape either fails or yields a layout meeting the contract; it
// never panics. Tape and object counts are bounded to keep each input
// small: larger ones only add cartridges to generate and extents to
// check.
func FuzzSweepLayout(f *testing.F) {
	f.Add(4, 64, 32, 2)
	f.Add(8, 512, 32, 3)
	f.Add(3, 1, 1, 3)
	f.Add(2, 4096, 150, 2)
	f.Add(-1, 0, -5, 9)
	f.Fuzz(func(t *testing.T, tapes, objects, segs, r int) {
		if tapes > 8 || objects > 4096 {
			return
		}
		layout, err := SweepLayout(geometry.DLT4000(), tapes, objects, segs, r)
		if err != nil {
			return
		}
		checkSweepLayout(t, layout, tapes, objects, segs, r)
	})
}
