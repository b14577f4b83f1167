// Package cache implements the set-associative data-cache hierarchy of the
// modelled Itanium®2-like processor: an 8KB L0 (2-cycle hits), a 256KB L1
// (10-cycle hits), a 10MB L2 (25-cycle hits) and main memory behind them.
//
// The hierarchy's only job in this study is to decide, per access, which
// level services it — that classification is the paper's squash *trigger*
// ("L0 load miss" / "L1 load miss") — and what latency the consumer sees,
// which sets how long instructions pool in the instruction queue. Caches
// carry a protection attribute (none/parity/ECC) so the soft-error-rate
// composition can attribute SDC vs DUE contributions, and an optional
// per-line π bit used by the paper's mechanism (4), π bits on caches and
// memory.
//
// Every simulation starts from the same warmed hierarchy, so a simulation
// need not own a copy of it: Hierarchy.ViewInto hands out copy-on-touch
// views of one frozen warm template, each keeping private copies of only
// the sets it has probed.
package cache

import (
	"fmt"
	"slices"
)

// Protection describes a structure's error detection/correction capability.
type Protection uint8

const (
	// ProtNone means faults go undetected (SDC-contributing).
	ProtNone Protection = iota
	// ProtParity detects single-bit faults but cannot correct them
	// (DUE-contributing).
	ProtParity
	// ProtECC corrects single-bit faults (no error contribution under the
	// paper's single-bit fault model).
	ProtECC
)

// String returns the conventional shorthand for the protection level.
func (p Protection) String() string {
	switch p {
	case ProtNone:
		return "none"
	case ProtParity:
		return "parity"
	case ProtECC:
		return "ecc"
	default:
		return fmt.Sprintf("protection(%d)", uint8(p))
	}
}

// Config sizes one cache level.
type Config struct {
	Name       string
	Size       int // total capacity in bytes
	LineSize   int // bytes per line; must be a power of two
	Assoc      int // ways per set
	HitLatency int // cycles to service a hit at this level
	Protection Protection
	PiBits     bool // allocate a π bit per line (paper §4.3.3 option 4)
}

func (c *Config) validate() error {
	if c.Size <= 0 || c.LineSize <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry", c.Name)
	}
	if c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache %q: line size %d not a power of two", c.Name, c.LineSize)
	}
	if c.LineSize < minLineSize {
		return fmt.Errorf("cache %q: line size %d below %d bytes", c.Name, c.LineSize, minLineSize)
	}
	if c.Size%(c.LineSize*c.Assoc) != 0 {
		return fmt.Errorf("cache %q: size %d not divisible by line*assoc", c.Name, c.Size)
	}
	sets := c.Size / (c.LineSize * c.Assoc)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: set count %d not a power of two", c.Name, sets)
	}
	if c.HitLatency < 0 {
		return fmt.Errorf("cache %q: negative hit latency", c.Name)
	}
	return nil
}

// minLineSize keeps the three state flags out of the tag: a line address
// is a byte address shifted right by at least log2(8) = 3 bits, so its top
// three bits are always clear.
const minLineSize = 8

// line is one way of a set in 16 bytes: the line address in the low bits
// of word with the valid, dirty and π flags above it, plus the LRU stamp.
type line struct {
	word uint64
	lru  uint64 // last-touch stamp; larger = more recent
}

const (
	lineValid = 1 << 63
	lineDirty = 1 << 62
	linePi    = 1 << 61
	lineFlags = lineValid | lineDirty | linePi
)

func (ln *line) tag() uint64 { return ln.word &^ lineFlags }
func (ln *line) dirty() bool { return ln.word&lineDirty != 0 }
func (ln *line) pi() bool    { return ln.word&linePi != 0 }

// holds reports whether the line is valid and caches tag.
func (ln *line) holds(tag uint64) bool { return ln.word&^(lineDirty|linePi) == tag|lineValid }

// Stats accumulates per-level access counts.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// MissRate returns misses/accesses, or 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Eviction describes a line displaced from a cache, delivered to the
// hierarchy's OnEvict hook. The π-bit machinery uses it to detect π state
// going out of scope (paper §4.2: "when the π bit goes out of scope, an
// implementation should flag an error").
type Eviction struct {
	Level    int
	LineAddr uint64
	Dirty    bool
	Pi       bool
}

// Cache is one set-associative level. It is not safe for concurrent use.
// A plain cache owns its sets, end to end in one array. A view (see
// Hierarchy.ViewInto) reads its sets from a frozen template's array until
// a probe first reaches one, which copies that set into the view's own
// pool; the template is never written.
type Cache struct {
	cfg   Config
	lines []line // set s is lines[s*Assoc : (s+1)*Assoc]; a view's are the template's
	// A view's copy-on-touch state, nil for a plain cache: slot[s] is 1 +
	// the index of set s's private copy in pool, or 0 while set s is still
	// the template's; owned lists the copied sets in pool order.
	slot       []int32
	pool       []line
	owned      []int32
	setMask    uint64
	offsetBits uint
	clock      uint64
	stats      Stats
}

// NewCache builds a cache from cfg.
func NewCache(cfg Config) (*Cache, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Size / (cfg.LineSize * cfg.Assoc)
	offsetBits := uint(0)
	for 1<<offsetBits < cfg.LineSize {
		offsetBits++
	}
	return &Cache{
		cfg:        cfg,
		lines:      make([]line, nsets*cfg.Assoc),
		setMask:    uint64(nsets - 1),
		offsetBits: offsetBits,
	}, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Clone returns a deep copy of the cache: lines, replacement state and
// counters. Clones evolve independently; a clone of a warmed cache behaves
// bit-identically to a cache warmed by replaying the same accesses. The
// clone of a view is a plain cache holding the view's lines.
func (c *Cache) Clone() *Cache {
	return &Cache{
		cfg:        c.cfg,
		lines:      c.flat(),
		setMask:    c.setMask,
		offsetBits: c.offsetBits,
		clock:      c.clock,
		stats:      c.stats,
	}
}

// flat returns a fresh array of the cache's lines, set after set: the
// template's lines with the view's private sets laid over them.
func (c *Cache) flat() []line {
	out := slices.Clone(c.lines)
	a := c.cfg.Assoc
	for k, s := range c.owned {
		copy(out[int(s)*a:], c.pool[k*a:(k+1)*a])
	}
	return out
}

// viewInto returns a view of c, a plain cache that must not change while
// the view is in use, reusing dst's slot table and pool when dst is a view
// of the same configuration: only the slots dst touched are reset. The
// view starts with c's replacement clock and counters.
func (c *Cache) viewInto(dst *Cache) *Cache {
	if c.slot != nil {
		panic("cache: view of a view")
	}
	nsets := len(c.lines) / c.cfg.Assoc
	if dst == nil || dst.cfg != c.cfg || len(dst.slot) != nsets {
		dst = &Cache{slot: make([]int32, nsets)}
	}
	for _, s := range dst.owned {
		dst.slot[s] = 0
	}
	dst.cfg = c.cfg
	dst.lines = c.lines
	dst.pool = dst.pool[:0]
	dst.owned = dst.owned[:0]
	dst.setMask = c.setMask
	dst.offsetBits = c.offsetBits
	dst.clock = c.clock
	dst.stats = c.stats
	return dst
}

// Stats returns a snapshot of the access counters.
func (c *Cache) Stats() Stats { return c.stats }

// LineAddr truncates addr to its line address in this cache.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.offsetBits << c.offsetBits }

// index returns the set addr maps to and its tag (the full line address,
// for simplicity). On a view it is the set's private copy, or nil while
// the set is still the template's: the caller then takes its copy with
// touch. The copy stays out of index so that index inlines.
func (c *Cache) index(addr uint64) (set []line, tag uint64) {
	la := addr >> c.offsetBits
	s := int(la & c.setMask)
	a := c.cfg.Assoc
	if c.slot == nil {
		return c.lines[s*a : s*a+a], la
	}
	if k := int(c.slot[s]); k != 0 {
		return c.pool[(k-1)*a : k*a], la
	}
	return nil, la
}

// touch copies the template's set holding line address la into a view's
// pool and returns the copy.
func (c *Cache) touch(la uint64) []line {
	s := int(la & c.setMask)
	a := c.cfg.Assoc
	c.pool = append(c.pool, c.lines[s*a:s*a+a]...)
	c.owned = append(c.owned, int32(s))
	c.slot[s] = int32(len(c.owned))
	return c.pool[len(c.pool)-a:]
}

// Lookup probes without modifying replacement state or counters. It returns
// the line if present.
func (c *Cache) Lookup(addr uint64) (found bool, dirty bool, pi bool) {
	set, tag := c.index(addr)
	if set == nil {
		set = c.touch(tag)
	}
	for i := range set {
		if ln := &set[i]; ln.holds(tag) {
			return true, ln.dirty(), ln.pi()
		}
	}
	return false, false, false
}

// Access probes for addr, updating LRU and counters. On a hit it returns
// hit=true. It does not allocate; use Fill after resolving a miss.
func (c *Cache) Access(addr uint64, write bool) bool {
	c.clock++
	c.stats.Accesses++
	set, tag := c.index(addr)
	if set == nil {
		set = c.touch(tag)
	}
	for i := range set {
		if ln := &set[i]; ln.holds(tag) {
			ln.lru = c.clock
			if write {
				ln.word |= lineDirty
			}
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

// Fill allocates a line for addr, evicting the LRU way if needed. The
// eviction (if any) is returned so the hierarchy can cascade writebacks and
// π-scope exits. write marks the new line dirty.
func (c *Cache) Fill(addr uint64, write bool) (ev Eviction, evicted bool) {
	c.clock++
	set, tag := c.index(addr)
	if set == nil {
		set = c.touch(tag)
	}
	victim := -1
	for i := range set {
		ln := &set[i]
		if ln.holds(tag) { // already present (double fill): refresh
			ln.lru = c.clock
			if write {
				ln.word |= lineDirty
			}
			return Eviction{}, false
		}
		if ln.word&lineValid == 0 {
			victim = i
		}
	}
	if victim < 0 {
		oldest := uint64(1<<64 - 1)
		for i := range set {
			if set[i].lru < oldest {
				oldest = set[i].lru
				victim = i
			}
		}
		old := &set[victim]
		ev = Eviction{
			LineAddr: old.tag() << c.offsetBits,
			Dirty:    old.dirty(),
			Pi:       old.pi(),
		}
		evicted = true
		c.stats.Evictions++
		if old.dirty() {
			c.stats.Writebacks++
		}
	}
	set[victim] = line{word: tag | lineValid, lru: c.clock}
	if write {
		set[victim].word |= lineDirty
	}
	return ev, evicted
}

// SetPi sets or clears the π bit on the line holding addr, if present and
// if this cache was configured with π bits. It reports whether the line was
// found.
func (c *Cache) SetPi(addr uint64, v bool) bool {
	if !c.cfg.PiBits {
		return false
	}
	set, tag := c.index(addr)
	if set == nil {
		set = c.touch(tag)
	}
	for i := range set {
		if ln := &set[i]; ln.holds(tag) {
			if v {
				ln.word |= linePi
			} else {
				ln.word &^= linePi
			}
			return true
		}
	}
	return false
}

// Pi reads the π bit of the line holding addr; ok is false if the line is
// absent or the cache has no π bits.
func (c *Cache) Pi(addr uint64) (pi, ok bool) {
	if !c.cfg.PiBits {
		return false, false
	}
	set, tag := c.index(addr)
	if set == nil {
		set = c.touch(tag)
	}
	for i := range set {
		if ln := &set[i]; ln.holds(tag) {
			return ln.pi(), true
		}
	}
	return false, false
}

// Flush invalidates every line, returning the count that were dirty. A
// flushed view is a plain cache again, owning a fresh array of invalid
// lines.
func (c *Cache) Flush() int {
	if c.slot != nil {
		c.lines = c.flat()
		c.slot, c.pool, c.owned = nil, nil, nil
	}
	dirty := 0
	for i := range c.lines {
		if c.lines[i].word&(lineValid|lineDirty) == lineValid|lineDirty {
			dirty++
		}
		c.lines[i] = line{}
	}
	return dirty
}
