package core

import (
	"runtime"
	"testing"
)

// TestArenasSurviveGC pins that a scheduling arena outlives garbage
// collection: with collections between Schedule calls, LOSS and SLTF
// still allocate only the returned plan. Two collections run between
// calls because one is not enough to empty a sync.Pool: its victim
// cache keeps the previous cycle's objects.
func TestArenasSurviveGC(t *testing.T) {
	m := testModel(t, 1)
	p := randomProblem(t, m, 128, 42)
	for _, alg := range []Scheduler{NewLOSS(), NewSLTF()} {
		allocs := testing.AllocsPerRun(20, func() {
			runtime.GC()
			runtime.GC()
			if _, err := alg.Schedule(p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("%s: %v allocs per Schedule across collections, want 1 (the plan)", alg.Name(), allocs)
		}
	}
}

type sizedArena struct{ bytes int }

func (a *sizedArena) tableBytes() int { return a.bytes }

// The free list keeps at most maxFreeArenas arenas, refuses one whose
// tables exceed maxArenaBytes, and hands back what it kept before
// making a fresh one.
func TestArenaListBounds(t *testing.T) {
	fresh := 0
	l := arenaList[*sizedArena]{fresh: func() *sizedArena { fresh++; return new(sizedArena) }}
	big := &sizedArena{bytes: maxArenaBytes + 1}
	l.put(big)
	if len(l.free) != 0 {
		t.Fatalf("kept an arena of %d table bytes", big.bytes)
	}
	kept := &sizedArena{bytes: maxArenaBytes}
	l.put(kept)
	for i := 0; i < 2*maxFreeArenas; i++ {
		l.put(new(sizedArena))
	}
	if len(l.free) != maxFreeArenas {
		t.Fatalf("free list holds %d arenas, want %d", len(l.free), maxFreeArenas)
	}
	for i := 0; i < maxFreeArenas-1; i++ {
		l.get()
	}
	if a := l.get(); a != kept || fresh != 0 {
		t.Fatalf("got %p after %d fresh arenas, want the first kept arena %p", a, fresh, kept)
	}
	l.get()
	if fresh != 1 {
		t.Fatalf("empty free list made %d fresh arenas, want 1", fresh)
	}
}
