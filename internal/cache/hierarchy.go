package cache

import "fmt"

// Level indices for the modelled three-level hierarchy. LevelMemory is the
// pseudo-level representing main memory.
const (
	LevelL0 = 0
	LevelL1 = 1
	LevelL2 = 2
	// LevelMemory is returned when an access misses every cache level.
	LevelMemory = 3
)

// HierarchyConfig sizes the full data hierarchy.
type HierarchyConfig struct {
	Levels     []Config
	MemLatency int // cycles for an access that misses every level
}

// DefaultHierarchy returns the paper's hierarchy: 8KB L0 with 2-cycle hits,
// 256KB L1 with 10-cycle hits, 10MB L2 with 25-cycle hits, and a main
// memory latency characteristic of the modelled 2.5 GHz part.
func DefaultHierarchy() HierarchyConfig {
	return HierarchyConfig{
		Levels: []Config{
			{Name: "L0", Size: 8 << 10, LineSize: 64, Assoc: 4, HitLatency: 2, Protection: ProtParity},
			{Name: "L1", Size: 256 << 10, LineSize: 128, Assoc: 8, HitLatency: 10, Protection: ProtParity},
			{Name: "L2", Size: 10 << 20, LineSize: 128, Assoc: 10, HitLatency: 25, Protection: ProtECC},
		},
		MemLatency: 200,
	}
}

// AccessResult reports where an access was serviced.
type AccessResult struct {
	// Level is the hierarchy level that supplied the data: LevelL0..LevelL2
	// or LevelMemory.
	Level int
	// Latency is the cycles until the data is available to consumers.
	Latency int
}

// MissedLevel reports whether the access missed in the given cache level
// (i.e. was serviced further out). This is the squash-trigger predicate:
// MissedLevel(LevelL1) is the paper's "L1 load miss" trigger.
func (r AccessResult) MissedLevel(level int) bool { return r.Level > level }

// Hierarchy composes cache levels with an inclusive fill policy.
type Hierarchy struct {
	levels      []*Cache
	memLatency  int
	memAccesses uint64
}

// NewHierarchy builds a Hierarchy from cfg.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if len(cfg.Levels) == 0 {
		return nil, fmt.Errorf("cache: hierarchy needs at least one level")
	}
	if cfg.MemLatency <= 0 {
		return nil, fmt.Errorf("cache: non-positive memory latency %d", cfg.MemLatency)
	}
	h := &Hierarchy{memLatency: cfg.MemLatency}
	for _, lc := range cfg.Levels {
		c, err := NewCache(lc)
		if err != nil {
			return nil, err
		}
		h.levels = append(h.levels, c)
	}
	return h, nil
}

// MustNewDefault builds the paper's default hierarchy; it panics only on a
// programming error in the defaults.
func MustNewDefault() *Hierarchy {
	h, err := NewHierarchy(DefaultHierarchy())
	if err != nil {
		panic(err)
	}
	return h
}

// Clone returns a deep copy of the hierarchy: every level's lines,
// replacement state and counters. Cloning a warmed hierarchy is
// bit-identical to warming a fresh one with the same access sequence, which
// is what lets concurrent simulations share one warm-up. The clone of a
// view is a plain hierarchy.
func (h *Hierarchy) Clone() *Hierarchy {
	c := &Hierarchy{memLatency: h.memLatency, memAccesses: h.memAccesses}
	c.levels = make([]*Cache, len(h.levels))
	for i, lv := range h.levels {
		c.levels[i] = lv.Clone()
	}
	return c
}

// ViewInto returns a copy-on-touch view of h: a hierarchy in h's exact
// state whose levels read h's lines until a probe first reaches a set, and
// then work on a private copy of that set. h is the frozen template and
// must not be probed or changed while any view of it is in use; views of
// one template may run on concurrent goroutines, since none writes h. When
// dst is a hierarchy of the same shape, its levels' slot tables and pools
// are reused and only the slots dst touched are reset, so re-viewing a
// pooled hierarchy copies nothing up front and allocates nothing once its
// pools have grown. Like Clone, the result behaves bit-identically to
// warming a fresh hierarchy — the cache view tests pin ViewInto against
// Clone, probe for probe.
func (h *Hierarchy) ViewInto(dst *Hierarchy) *Hierarchy {
	if dst == nil || len(dst.levels) != len(h.levels) {
		dst = &Hierarchy{levels: make([]*Cache, len(h.levels))}
	}
	dst.memLatency = h.memLatency
	dst.memAccesses = h.memAccesses
	for i, lv := range h.levels {
		dst.levels[i] = lv.viewInto(dst.levels[i])
	}
	return dst
}

// NumLevels returns the number of cache levels (excluding memory).
func (h *Hierarchy) NumLevels() int { return len(h.levels) }

// Level returns the cache at the given level index.
func (h *Hierarchy) Level(i int) *Cache { return h.levels[i] }

// MemAccesses returns the number of accesses serviced by main memory.
func (h *Hierarchy) MemAccesses() uint64 { return h.memAccesses }

// Access services a data access, probing levels inward-out, filling all
// inner levels on the way back (inclusive). write marks lines dirty.
func (h *Hierarchy) Access(addr uint64, write bool) AccessResult {
	for i, c := range h.levels {
		if c.Access(addr, write) {
			h.fillInner(addr, write, i)
			return AccessResult{Level: i, Latency: c.cfg.HitLatency}
		}
	}
	h.memAccesses++
	h.fillInner(addr, write, len(h.levels))
	return AccessResult{Level: LevelMemory, Latency: h.memLatency}
}

// fillInner allocates addr into every level closer than hitLevel.
func (h *Hierarchy) fillInner(addr uint64, write bool, hitLevel int) {
	for i := hitLevel - 1; i >= 0; i-- {
		h.levels[i].Fill(addr, write)
	}
}

// Prefetch warms the hierarchy for addr without counting a demand access at
// the levels that already hold it. Modelling detail: prefetches fill like
// reads.
func (h *Hierarchy) Prefetch(addr uint64) {
	for i, c := range h.levels {
		if found, _ := c.Lookup(addr); found {
			h.fillInner(addr, false, i)
			return
		}
	}
	h.fillInner(addr, false, len(h.levels))
}
