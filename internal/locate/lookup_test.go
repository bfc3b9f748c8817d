package locate

import (
	"fmt"
	"sort"
	"testing"

	"serpentine/internal/geometry"
)

// searchPlace places lbn by binary search over the track boundaries
// and each track's BoundLBN: the O(log) derivation the section lookup
// replaces. It returns the placement and the dense section index.
func searchPlace(v *geometry.View, lbn int) (geometry.Placement, int) {
	t := sort.Search(v.Tracks(), func(t int) bool { return v.Track(t).EndLBN() > lbn })
	tv := v.Track(t)
	l := sort.Search(tv.Sections(), func(l int) bool { return tv.BoundLBN[l+1] > lbn })
	frac := (float64(lbn-tv.BoundLBN[l]) + 0.5) / float64(tv.SectionCount(l))
	phys := l
	if tv.Dir == geometry.Reverse {
		phys = tv.Sections() - 1 - l
	}
	return geometry.Placement{
		LBN:         lbn,
		Track:       t,
		Dir:         tv.Dir,
		Section:     l,
		PhysSection: phys,
		Frac:        frac,
		Pos:         tv.BoundPos[l] + frac*(tv.BoundPos[l+1]-tv.BoundPos[l]),
	}, t*v.Params().SectionsPerTrack + l
}

// sectionEdges returns the first and last segment of every section,
// each with its neighbours on both sides, clipped to the tape.
func sectionEdges(v *geometry.View) []int {
	var out []int
	for t := 0; t < v.Tracks(); t++ {
		tv := v.Track(t)
		for l := 0; l < tv.Sections(); l++ {
			for _, b := range []int{tv.BoundLBN[l], tv.BoundLBN[l+1] - 1} {
				for _, lbn := range []int{b - 1, b, b + 1} {
					if lbn >= 0 && lbn < v.Segments() {
						out = append(out, lbn)
					}
				}
			}
		}
	}
	return out
}

// checkSegment compares every per-segment answer of the model and its
// view at lbn against the binary-search placement and the reference
// decomposition, bit for bit.
func checkSegment(t *testing.T, name string, m *Model, lbn int) {
	t.Helper()
	v := m.View()
	want, idx := searchPlace(v, lbn)
	if got := v.Place(lbn); got != want {
		t.Fatalf("%s: Place(%d) = %+v, binary search %+v", name, lbn, got, want)
	}
	if got := v.SectionIndex(lbn); got != idx {
		t.Fatalf("%s: SectionIndex(%d) = %d, binary search %d", name, lbn, got, idx)
	}
	if got, ref := m.ReadTime(lbn), m.referenceReadTime(lbn); got != ref {
		t.Fatalf("%s: ReadTime(%d) = %v, reference %v", name, lbn, got, ref)
	}
	rw := m.p.OverheadSec + m.p.ScanSecPerSection*want.Pos
	if want.Dir == geometry.Forward {
		rw += m.p.ReverseSec
	}
	if got := m.RewindTime(lbn); got != rw {
		t.Fatalf("%s: RewindTime(%d) = %v, reference %v", name, lbn, got, rw)
	}
}

// checkModel runs checkSegment over every section edge and pairs each
// edge with a spread of partners in both directions for LocateTime.
func checkModel(t *testing.T, name string, m *Model) {
	t.Helper()
	edges := sectionEdges(m.View())
	n := m.Segments()
	partners := []int{0, 1, n / 3, n / 2, n - 2, n - 1}
	for i, lbn := range edges {
		checkSegment(t, name, m, lbn)
		// A neighbouring edge exercises the same-track and Case 1
		// paths; the fixed partners the cross-tape ones.
		near := edges[(i+7)%len(edges)]
		for _, q := range append(partners, near) {
			if got, ref := m.LocateTime(lbn, q), m.referenceLocateTime(lbn, q); got != ref {
				t.Fatalf("%s: LocateTime(%d, %d) = %v, reference %v", name, lbn, q, got, ref)
			}
			if got, ref := m.LocateTime(q, lbn), m.referenceLocateTime(q, lbn); got != ref {
				t.Fatalf("%s: LocateTime(%d, %d) = %v, reference %v", name, q, lbn, got, ref)
			}
		}
	}
}

// The O(sections) tables answer exactly as the per-segment derivation
// does at every section boundary, on every built-in profile, for the
// nominal and the truth model of two cartridges each.
func TestSectionBoundaryEquivalence(t *testing.T) {
	profiles := []geometry.Params{geometry.DLT4000(), geometry.DLT7000(), geometry.IBM3590(), geometry.Tiny()}
	for _, p := range profiles {
		for _, serial := range []int64{1, 2} {
			c, err := Load(p, serial)
			if err != nil {
				t.Fatal(err)
			}
			checkModel(t, fmt.Sprintf("%s #%d nominal", p.Name, serial), c.Model())
			checkModel(t, fmt.Sprintf("%s #%d truth", p.Name, serial), c.Truth())
		}
	}
}

// oneSegmentModel builds a model over a hand-made key-point table
// whose narrowest section holds a single segment, so the lookup's
// buckets are one segment wide.
func oneSegmentModel(t testing.TB) *Model {
	t.Helper()
	p := geometry.Tiny()
	p.Tracks = 2
	p.SectionsPerTrack = 3
	kp := &geometry.KeyPointTable{
		Params: p,
		Bound:  [][]int{{0, 5, 6, 40}, {40, 41, 50, 52}},
		Total:  52,
	}
	m, err := FromKeyPoints(kp)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSectionLookupOneSegmentBuckets(t *testing.T) {
	m := oneSegmentModel(t)
	for lbn := 0; lbn < m.Segments(); lbn++ {
		checkSegment(t, "one-segment table", m, lbn)
		for dst := 0; dst < m.Segments(); dst++ {
			if got, ref := m.LocateTime(lbn, dst), m.referenceLocateTime(lbn, dst); got != ref {
				t.Fatalf("LocateTime(%d, %d) = %v, reference %v", lbn, dst, got, ref)
			}
		}
	}
}

// FuzzSectionIndex checks the section lookup against binary search at
// arbitrary segment numbers: any in-range LBN places, indexes, reads
// and rewinds exactly as the reference derivation does, and an
// out-of-range one panics rather than answering.
func FuzzSectionIndex(f *testing.F) {
	dlt, err := Load(geometry.DLT4000(), 1)
	if err != nil {
		f.Fatal(err)
	}
	models := []*Model{dlt.Model(), dlt.Truth(), oneSegmentModel(f)}
	for _, lbn := range []int{0, 1, 255, 256, 713, 622469, 622470, -1, 1 << 40} {
		f.Add(lbn)
	}
	f.Fuzz(func(t *testing.T, lbn int) {
		for i, m := range models {
			if lbn >= 0 && lbn < m.Segments() {
				checkSegment(t, fmt.Sprintf("model %d", i), m, lbn)
				continue
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("model %d: SectionIndex(%d) answered outside [0,%d)", i, lbn, m.Segments())
					}
				}()
				m.View().SectionIndex(lbn)
			}()
		}
	})
}
