package cache

import (
	"slices"
	"sync"
	"testing"
)

// TestHierarchyCloneIndependence checks a clone carries the parent's exact
// state and then evolves independently.
func TestHierarchyCloneIndependence(t *testing.T) {
	h := MustNewDefault()
	for a := uint64(0); a < 1<<16; a += 64 {
		h.Access(a, a%128 == 0)
	}
	c := h.Clone()

	// Identical state: the same probe sequence must hit the same levels.
	for a := uint64(0); a < 1<<16; a += 4096 {
		if got, want := c.Access(a, false), h.Access(a, false); got != want {
			t.Fatalf("addr %#x: clone serviced at %+v, parent at %+v", a, got, want)
		}
	}
	if c.Level(0).Stats() != h.Level(0).Stats() {
		t.Fatalf("L0 stats diverged under identical accesses: clone %+v parent %+v",
			c.Level(0).Stats(), h.Level(0).Stats())
	}

	// Independence: accesses to the clone must not leak into the parent.
	before := h.Level(0).Stats()
	for a := uint64(1 << 30); a < 1<<30+1<<14; a += 64 {
		c.Access(a, true)
	}
	if h.Level(0).Stats() != before {
		t.Fatal("accessing the clone mutated the parent's L0")
	}
}

// sameCache fails t unless a and b are in the same observable state:
// configuration, replacement clock, counters and every line, a view's
// flattened over its template.
func sameCache(t *testing.T, what string, a, b *Cache) {
	t.Helper()
	if a.cfg != b.cfg || a.setMask != b.setMask || a.offsetBits != b.offsetBits {
		t.Fatalf("%s: geometry differs", what)
	}
	if a.clock != b.clock || a.stats != b.stats {
		t.Fatalf("%s: clock/stats %d %+v, want %d %+v", what, a.clock, a.stats, b.clock, b.stats)
	}
	if !slices.Equal(a.flat(), b.flat()) {
		t.Fatalf("%s: lines differ", what)
	}
}

// sameHierarchy is sameCache for every level plus the hierarchy's own
// state.
func sameHierarchy(t *testing.T, a, b *Hierarchy) {
	t.Helper()
	if a.memLatency != b.memLatency || a.memAccesses != b.memAccesses {
		t.Fatal("hierarchy state differs")
	}
	if len(a.levels) != len(b.levels) {
		t.Fatal("level count differs")
	}
	for i := range a.levels {
		sameCache(t, LevelName(i), a.levels[i], b.levels[i])
	}
}

// TestViewIntoMatchesClone pins the arena-reuse property: re-viewing a
// dirty pooled view of a warm template must produce exactly the state a
// fresh Clone would, every field, every line, while the template itself
// is never written.
func TestViewIntoMatchesClone(t *testing.T) {
	warm := MustNewDefault()
	for a := uint64(0); a < 1<<17; a += 64 {
		warm.Access(a, a%192 == 0)
	}
	frozen := warm.Clone()

	// Dirty a pooled view with a completely different access pattern.
	pooled := warm.ViewInto(nil)
	for a := uint64(1 << 28); a < 1<<28+1<<16; a += 32 {
		pooled.Access(a, true)
	}
	for a := uint64(0); a < 1<<17; a += 4096 {
		pooled.Access(a, true)
	}
	sameHierarchy(t, warm, frozen)

	want := warm.Clone()
	got := warm.ViewInto(pooled)
	if got != pooled {
		t.Fatal("ViewInto allocated a fresh hierarchy despite a compatible dst")
	}
	sameHierarchy(t, got, want)

	// The re-viewed hierarchy evolves exactly as the clone does, and the
	// template stays as it was.
	for a := uint64(0); a < 1<<18; a += 96 {
		if g, w := got.Access(a, a%256 == 0), want.Access(a, a%256 == 0); g != w {
			t.Fatalf("addr %#x: view serviced at %+v, clone at %+v", a, g, w)
		}
	}
	sameHierarchy(t, got, want)
	sameHierarchy(t, warm, frozen)

	// Cloning a view yields a plain hierarchy in the view's state.
	if c := got.Clone(); c.levels[0].slot != nil {
		t.Fatal("Clone of a view is still a view")
	} else {
		sameHierarchy(t, c, want)
	}

	// Incompatible destinations fall back to a fresh view.
	small, err := NewHierarchy(HierarchyConfig{
		Levels:     []Config{{Name: "L0", Size: 4 << 10, LineSize: 64, Assoc: 2, HitLatency: 1}},
		MemLatency: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	fb := warm.ViewInto(small)
	if fb == small {
		t.Fatal("ViewInto into an incompatible hierarchy must build a fresh view")
	}
	sameHierarchy(t, fb, frozen)
}

// TestViewsConcurrent runs views of one frozen template on concurrent
// goroutines, each against its own deep clone; under the race detector it
// also proves that no view writes the shared template.
func TestViewsConcurrent(t *testing.T) {
	warm := MustNewDefault()
	for a := uint64(0); a < 1<<17; a += 64 {
		warm.Access(a, a%192 == 0)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			view, clone := warm.ViewInto(nil), warm.Clone()
			for round := 0; round < 2; round++ {
				for i := uint64(0); i < 4096; i++ {
					a := (i*uint64(2*g+3)*4099 + uint64(round)<<20) % (1 << 19)
					if v, c := view.Access(a, i%7 == 0), clone.Access(a, i%7 == 0); v != c {
						t.Errorf("goroutine %d: addr %#x: view %+v, clone %+v", g, a, v, c)
						return
					}
				}
				view, clone = warm.ViewInto(view), warm.Clone()
			}
		}(g)
	}
	wg.Wait()
}

// FuzzViewMatchesClone drives a deep clone and a view of one warmed
// template through the same random probes — Access, Fill, Lookup and
// re-viewing — and requires equal return values, counters and flattened
// lines after every step.
func FuzzViewMatchesClone(f *testing.F) {
	f.Add([]byte{0, 1, 2, 5, 3, 4, 7, 9, 8, 1, 2, 3})
	f.Add([]byte{1, 0, 0, 2, 16, 0, 5, 16, 0, 7, 16, 0, 9, 0, 0, 15, 0, 0, 6, 16, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		cfg := Config{Name: "T", Size: 4 << 10, LineSize: 64, Assoc: 4, HitLatency: 1}
		tmpl, err := NewCache(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for a := uint64(0); a < 1<<13; a += 64 {
			if !tmpl.Access(a, false) {
				tmpl.Fill(a, a%320 == 0)
			}
		}
		frozen := tmpl.Clone()
		clone, view := tmpl.Clone(), tmpl.viewInto(nil)
		for len(ops) >= 3 {
			op, addr := ops[0]%16, uint64(ops[1])<<6|uint64(ops[2]&63)
			ops = ops[3:]
			var c, v any
			switch op {
			case 0, 1:
				c, v = clone.Access(addr, op == 1), view.Access(addr, op == 1)
			case 2, 3:
				clone.Fill(addr, op == 3)
				view.Fill(addr, op == 3)
			case 4:
				cf, cd := clone.Lookup(addr)
				vf, vd := view.Lookup(addr)
				c, v = [2]bool{cf, cd}, [2]bool{vf, vd}
			case 9:
				clone, view = tmpl.Clone(), tmpl.viewInto(view)
			default: // bias towards the probes
				c, v = clone.Access(addr^1<<12, true), view.Access(addr^1<<12, true)
			}
			if c != v {
				t.Fatalf("op %d addr %#x: clone returned %v, view %v", op, addr, c, v)
			}
			sameCache(t, "view", view, clone)
		}
		sameCache(t, "template", tmpl, frozen)
	})
}

// TestCloneMatchesReplayedWarm checks the property core.Run relies on: a
// clone of a warmed hierarchy is indistinguishable from a fresh hierarchy
// warmed with the same access sequence.
func TestCloneMatchesReplayedWarm(t *testing.T) {
	warm := func(h *Hierarchy) {
		for a := uint64(0); a < 1<<18; a += 64 {
			h.Access(a, false)
		}
	}
	a := MustNewDefault()
	warm(a)
	b := MustNewDefault()
	warm(b)
	c := a.Clone()

	for addr := uint64(0); addr < 1<<18; addr += 512 {
		rb, rc := b.Access(addr, false), c.Access(addr, false)
		if rb != rc {
			t.Fatalf("addr %#x: replayed-warm %+v, clone %+v", addr, rb, rc)
		}
	}
	for lvl := 0; lvl < b.NumLevels(); lvl++ {
		if b.Level(lvl).Stats() != c.Level(lvl).Stats() {
			t.Fatalf("level %d stats: replayed-warm %+v, clone %+v",
				lvl, b.Level(lvl).Stats(), c.Level(lvl).Stats())
		}
	}
}
