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

// LevelName returns a printable name for a hierarchy level index.
func LevelName(level int) string {
	switch level {
	case LevelL0:
		return "L0"
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelMemory:
		return "memory"
	default:
		return fmt.Sprintf("level(%d)", level)
	}
}

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

// Hierarchy composes cache levels with an inclusive fill policy and an
// optional hardware next-line prefetcher. Prefetcher activity is a pure
// hint: a soft error in its command or address stream cannot affect
// correctness, which is why the paper attaches an anti-π bit to it
// (§4.3.2) — mis-prefetches only perturb performance.
type Hierarchy struct {
	levels     []*Cache
	memLatency int

	// OnEvict, if non-nil, observes every line displaced from any level.
	// Used by the π-bit machinery for out-of-scope detection.
	OnEvict func(Eviction)

	// NextLinePrefetch, when enabled, issues a prefetch for the next line
	// after every demand miss beyond the L0 — a minimal hardware
	// prefetcher.
	NextLinePrefetch bool

	memAccesses  uint64
	hwPrefetches uint64
	inHWPrefetch bool
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
// replacement state and counters. The OnEvict hook is not carried over —
// observers subscribe per instance. Cloning a warmed hierarchy is
// bit-identical to warming a fresh one with the same access sequence, which
// is what lets concurrent simulations share one warm-up. The clone of a
// view is a plain hierarchy.
func (h *Hierarchy) Clone() *Hierarchy {
	c := &Hierarchy{
		memLatency:       h.memLatency,
		NextLinePrefetch: h.NextLinePrefetch,
		memAccesses:      h.memAccesses,
		hwPrefetches:     h.hwPrefetches,
	}
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
// pools have grown. Like Clone, the result carries no OnEvict hook and
// behaves bit-identically to warming a fresh hierarchy — the cache view
// tests pin ViewInto against Clone, probe for probe.
func (h *Hierarchy) ViewInto(dst *Hierarchy) *Hierarchy {
	if dst == nil || len(dst.levels) != len(h.levels) {
		dst = &Hierarchy{levels: make([]*Cache, len(h.levels))}
	}
	dst.memLatency = h.memLatency
	dst.OnEvict = nil
	dst.NextLinePrefetch = h.NextLinePrefetch
	dst.memAccesses = h.memAccesses
	dst.hwPrefetches = h.hwPrefetches
	dst.inHWPrefetch = false
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

// HWPrefetches returns the number of prefetches the hardware prefetcher
// has issued.
func (h *Hierarchy) HWPrefetches() uint64 { return h.hwPrefetches }

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
	h.maybeNextLine(addr)
	return AccessResult{Level: LevelMemory, Latency: h.memLatency}
}

// maybeNextLine issues the hardware prefetcher's next-line hint after a
// demand miss to memory.
func (h *Hierarchy) maybeNextLine(addr uint64) {
	if !h.NextLinePrefetch || h.inHWPrefetch {
		return
	}
	h.inHWPrefetch = true
	line := uint64(h.levels[len(h.levels)-1].Config().LineSize)
	h.Prefetch(addr + line)
	h.hwPrefetches++
	h.inHWPrefetch = false
}

// fillInner allocates addr into every level closer than hitLevel.
func (h *Hierarchy) fillInner(addr uint64, write bool, hitLevel int) {
	for i := hitLevel - 1; i >= 0; i-- {
		ev, evicted := h.levels[i].Fill(addr, write)
		if evicted && h.OnEvict != nil {
			ev.Level = i
			h.OnEvict(ev)
		}
	}
}

// Prefetch warms the hierarchy for addr without counting a demand access at
// the levels that already hold it. Modelling detail: prefetches fill like
// reads.
func (h *Hierarchy) Prefetch(addr uint64) {
	for i, c := range h.levels {
		if found, _, _ := c.Lookup(addr); found {
			h.fillInner(addr, false, i)
			return
		}
	}
	h.fillInner(addr, false, len(h.levels))
}

// SetPi propagates a π-bit write for addr to every π-capable level holding
// the line. It reports whether any level recorded it.
func (h *Hierarchy) SetPi(addr uint64, v bool) bool {
	any := false
	for _, c := range h.levels {
		if c.SetPi(addr, v) {
			any = true
		}
	}
	return any
}

// Pi returns the π bit for addr from the innermost π-capable level holding
// the line.
func (h *Hierarchy) Pi(addr uint64) (pi, ok bool) {
	for _, c := range h.levels {
		if p, found := c.Pi(addr); found {
			return p, true
		}
	}
	return false, false
}
