package obs

import (
	"slices"
	"testing"
)

// FuzzRing drives a Ring[int] with an arbitrary sequence of adds and
// tail reads and checks it against the whole added stream: the ring
// never holds more than its cap, Total == len(Items()) + Dropped,
// Items() is exactly the last min(Total, cap) adds in order, and
// Tail(from) is the matching suffix of Items() for every from,
// including negative offsets and offsets past Total. Each op byte
// adds its value, except that a byte >= 200 instead reads Tail at an
// offset derived from it (op-216, so -16..55).
func FuzzRing(f *testing.F) {
	f.Add(1, []byte{0})
	f.Add(0, []byte{5, 216, 6, 200, 7, 255})
	f.Add(3, []byte{1, 2, 3, 4, 5, 218, 219, 220, 221, 222, 6})
	f.Add(-4, []byte{9, 9, 9, 210, 230})
	f.Add(16, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 221, 234, 235, 236, 237})
	f.Fuzz(func(t *testing.T, capItems int, ops []byte) {
		if capItems < -16 || capItems > 1<<10 {
			return
		}
		r := NewRing[int](capItems)
		effCap := max(capItems, 1)
		var added []int
		for _, op := range ops {
			if op < 200 {
				r.Add(int(op))
				added = append(added, int(op))
			}
			items := r.Items()
			if len(items) > effCap {
				t.Fatalf("ring holds %d items, cap %d", len(items), effCap)
			}
			if r.Total() != int64(len(added)) {
				t.Fatalf("total %d, added %d", r.Total(), len(added))
			}
			if r.Total() != int64(len(items))+r.Dropped() {
				t.Fatalf("total %d != kept %d + dropped %d", r.Total(), len(items), r.Dropped())
			}
			if want := added[len(added)-min(len(added), effCap):]; !slices.Equal(items, want) {
				t.Fatalf("items %v, want the last %d adds %v", items, len(want), want)
			}
			froms := []int64{-1, 0, r.Total() - 1, r.Total(), r.Total() + 1}
			if op >= 200 {
				froms = append(froms, int64(op)-216)
			}
			first := r.Total() - int64(len(items)) // stream position of items[0]
			for _, from := range froms {
				want := items[min(max(from-first, 0), int64(len(items))):]
				if got := r.Tail(from); !slices.Equal(got, want) || (len(want) == 0) != (got == nil) {
					t.Fatalf("Tail(%d) = %v, want %v (nil when empty)", from, got, want)
				}
			}
		}
	})
}
