package cache

import (
	"fmt"
	"testing"
	"testing/quick"
	"unsafe"

	"softerror/internal/rng"
)

// LevelName returns a printable name for a hierarchy level index, for
// failure messages.
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

func smallCfg() Config {
	return Config{Name: "t", Size: 1 << 10, LineSize: 64, Assoc: 2, HitLatency: 2}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "zero"},
		{Name: "line", Size: 1024, LineSize: 48, Assoc: 2},       // non-pow2 line
		{Name: "tiny", Size: 1024, LineSize: 4, Assoc: 2},        // no room for the state bits
		{Name: "div", Size: 1000, LineSize: 64, Assoc: 2},        // not divisible
		{Name: "sets", Size: 64 * 2 * 3, LineSize: 64, Assoc: 2}, // 3 sets
		{Name: "lat", Size: 1024, LineSize: 64, Assoc: 2, HitLatency: -1},
	}
	for _, cfg := range bad {
		if _, err := NewCache(cfg); err == nil {
			t.Errorf("config %q should be rejected", cfg.Name)
		}
	}
	if _, err := NewCache(smallCfg()); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestLineSize pins the packed line: state flags share the tag word.
func TestLineSize(t *testing.T) {
	if got := unsafe.Sizeof(line{}); got != 16 {
		t.Fatalf("cache line is %d bytes, want 16", got)
	}
}

// TestHighAddressTags: a line address fills every bit below the flags at
// the minimum line size, and is still found, clean, and evicted as a clean
// line.
func TestHighAddressTags(t *testing.T) {
	c, err := NewCache(Config{Name: "t", Size: 64, LineSize: minLineSize, Assoc: 2})
	if err != nil {
		t.Fatal(err)
	}
	hi := uint64(1<<64-1) &^ (minLineSize - 1)
	c.Fill(hi, false)
	if found, dirty := c.Lookup(hi); !found || dirty {
		t.Fatalf("Lookup(%#x) = %v, %v, want resident and clean", hi, found, dirty)
	}
	if found, _ := c.Lookup(hi &^ (1 << 60)); found {
		t.Fatal("an address differing in the top tag bit hits")
	}
	// Two more lines in hi's set (the last of four) evict it, LRU-first.
	c.Fill(3*minLineSize, true)
	c.Fill(7*minLineSize, false)
	if found, _ := c.Lookup(hi); found {
		t.Fatalf("line %#x still resident, want it evicted", hi)
	}
	if st := c.Stats(); st.Evictions != 1 || st.Writebacks != 0 {
		t.Fatalf("stats = %+v, want one clean eviction", st)
	}
}

func TestProtectionString(t *testing.T) {
	if ProtNone.String() != "none" || ProtParity.String() != "parity" || ProtECC.String() != "ecc" {
		t.Error("protection names wrong")
	}
	if Protection(9).String() == "" {
		t.Error("unknown protection should still render")
	}
}

func TestMissThenHit(t *testing.T) {
	c, _ := NewCache(smallCfg())
	if c.Access(0x1000, false) {
		t.Fatal("cold access hit")
	}
	c.Fill(0x1000, false)
	if !c.Access(0x1000, false) {
		t.Fatal("access after fill missed")
	}
	// Same line, different offset.
	if !c.Access(0x1000+32, false) {
		t.Fatal("same-line access missed")
	}
	// Different line.
	if c.Access(0x1000+64, false) {
		t.Fatal("next-line access hit without fill")
	}
	st := c.Stats()
	if st.Accesses != 4 || st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 4/2/2", st)
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way cache: lines A, B map to same set; touching A then filling C
	// must evict B.
	cfg := smallCfg() // 1KB / 64B / 2-way = 8 sets
	c, _ := NewCache(cfg)
	setStride := uint64(8 * 64) // same set every 512 bytes
	a, b, x := uint64(0), setStride, 2*setStride
	c.Access(a, false)
	c.Fill(a, false)
	c.Access(b, false)
	c.Fill(b, false)
	if !c.Access(a, false) { // make A most recent
		t.Fatal("A should hit")
	}
	c.Fill(x, false)
	if c.Stats().Evictions != 1 {
		t.Fatal("fill into full set did not evict")
	}
	if !c.Access(a, false) || !c.Access(x, false) {
		t.Fatal("A and X should be resident")
	}
	if c.Access(b, false) {
		t.Fatal("B should have been evicted")
	}
}

func TestDirtyEvictionWriteback(t *testing.T) {
	cfg := smallCfg()
	c, _ := NewCache(cfg)
	setStride := uint64(8 * 64)
	c.Fill(0, true) // dirty
	c.Fill(setStride, false)
	c.Fill(2*setStride, false)
	if st := c.Stats(); st.Evictions != 1 || st.Writebacks != 1 {
		t.Fatalf("stats = %+v, want one dirty eviction", st)
	}
	if found, _ := c.Lookup(0); found {
		t.Fatal("the dirty LRU line is still resident")
	}
}

func TestWriteMarksDirtyOnHit(t *testing.T) {
	c, _ := NewCache(smallCfg())
	c.Fill(0x40, false)
	c.Access(0x40, true)
	if _, dirty := c.Lookup(0x40); !dirty {
		t.Fatal("write hit did not mark line dirty")
	}
}

func TestDoubleFillRefreshes(t *testing.T) {
	c, _ := NewCache(smallCfg())
	c.Fill(0x80, false)
	c.Fill(0x80, true)
	if ev := c.Stats().Evictions; ev != 0 {
		t.Fatalf("double fill evicted %d lines", ev)
	}
	if _, dirty := c.Lookup(0x80); !dirty {
		t.Fatal("double fill with write did not mark dirty")
	}
}

func TestResidencyInvariant(t *testing.T) {
	// Property: immediately after Fill(addr), Lookup(addr) finds the line;
	// and an access stream never makes the cache hold more distinct lines
	// than its capacity.
	c, _ := NewCache(smallCfg())
	capacityLines := c.Config().Size / c.Config().LineSize
	f := func(addrs []uint16) bool {
		for _, a16 := range addrs {
			addr := uint64(a16) * 8
			if !c.Access(addr, false) {
				c.Fill(addr, false)
			}
			if found, _ := c.Lookup(addr); !found {
				return false
			}
		}
		resident := 0
		for i := range c.lines {
			if c.lines[i].word&lineValid != 0 {
				resident++
			}
		}
		return resident <= capacityLines
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyDefaults(t *testing.T) {
	h := MustNewDefault()
	if h.NumLevels() != 3 {
		t.Fatalf("NumLevels = %d, want 3", h.NumLevels())
	}
	if h.Level(LevelL0).Config().Size != 8<<10 {
		t.Error("L0 size wrong")
	}
	if h.Level(LevelL2).Config().Protection != ProtECC {
		t.Error("L2 should be ECC protected")
	}
}

func TestHierarchyInclusiveFill(t *testing.T) {
	h := MustNewDefault()
	r := h.Access(0x1234, false)
	if r.Level != LevelMemory {
		t.Fatalf("cold access level = %v, want memory", r.Level)
	}
	if r.Latency != 200 {
		t.Fatalf("cold access latency = %d, want 200", r.Latency)
	}
	// All levels now hold the line.
	for i := 0; i < h.NumLevels(); i++ {
		if found, _ := h.Level(i).Lookup(0x1234); !found {
			t.Fatalf("level %s missing line after inclusive fill", LevelName(i))
		}
	}
	r = h.Access(0x1234, false)
	if r.Level != LevelL0 || r.Latency != 2 {
		t.Fatalf("warm access = %+v, want L0/2", r)
	}
}

func TestHierarchyMidLevelHitFillsInner(t *testing.T) {
	h := MustNewDefault()
	h.Access(0x9000, false) // fills all levels
	// Evict from L0 by filling conflicting lines; L0 is 4-way, 32 sets.
	l0 := h.Level(LevelL0)
	setStride := uint64(l0.Config().Size / l0.Config().Assoc)
	for i := 1; i <= 4; i++ {
		h.Access(0x9000+uint64(i)*setStride, false)
	}
	if found, _ := l0.Lookup(0x9000); found {
		t.Skip("conflict stream did not evict; geometry changed")
	}
	r := h.Access(0x9000, false)
	if r.Level != LevelL1 {
		t.Fatalf("expected L1 hit after L0 eviction, got %s", LevelName(r.Level))
	}
	if r.Latency != 10 {
		t.Fatalf("L1 hit latency = %d, want 10", r.Latency)
	}
	if found, _ := l0.Lookup(0x9000); !found {
		t.Fatal("L1 hit did not refill L0")
	}
}

func TestMissedLevelPredicate(t *testing.T) {
	cases := []struct {
		level  int
		missL0 bool
		missL1 bool
	}{
		{LevelL0, false, false},
		{LevelL1, true, false},
		{LevelL2, true, true},
		{LevelMemory, true, true},
	}
	for _, c := range cases {
		r := AccessResult{Level: c.level}
		if r.MissedLevel(LevelL0) != c.missL0 {
			t.Errorf("level %s: MissedLevel(L0) = %v", LevelName(c.level), r.MissedLevel(LevelL0))
		}
		if r.MissedLevel(LevelL1) != c.missL1 {
			t.Errorf("level %s: MissedLevel(L1) = %v", LevelName(c.level), r.MissedLevel(LevelL1))
		}
	}
}

func TestHierarchyWorkingSetBehaviour(t *testing.T) {
	// Addresses confined to 4KB must converge to L0 hits; addresses spread
	// over 64KB must hit mostly L1; addresses over 2MB mostly L2.
	h := MustNewDefault()
	s := rng.New(3, 3)
	regions := []struct {
		name  string
		size  int64
		level int
	}{
		{"hot-4KB", 4 << 10, LevelL0},
		{"warm-64KB", 64 << 10, LevelL1},
		{"big-2MB", 2 << 20, LevelL2},
	}
	for _, reg := range regions {
		// Warm up with a full sequential sweep so every line is resident,
		// then with random touches to settle LRU state.
		for a := int64(0); a < reg.size; a += 64 {
			h.Access(uint64(a), false)
		}
		for i := 0; i < 20000; i++ {
			h.Access(uint64(s.Int63n(reg.size))&^7, false)
		}
		hits := 0
		const probes = 20000
		for i := 0; i < probes; i++ {
			r := h.Access(uint64(s.Int63n(reg.size))&^7, false)
			if r.Level <= reg.level {
				hits++
			}
		}
		frac := float64(hits) / probes
		if frac < 0.85 {
			t.Errorf("%s: only %.2f of accesses serviced at %s or closer",
				reg.name, frac, LevelName(reg.level))
		}
	}
}

func TestHierarchyPrefetchWarms(t *testing.T) {
	h := MustNewDefault()
	h.Prefetch(0x4000)
	r := h.Access(0x4000, false)
	if r.Level != LevelL0 {
		t.Fatalf("access after prefetch serviced at %s, want L0", LevelName(r.Level))
	}
}

func TestNewHierarchyRejects(t *testing.T) {
	if _, err := NewHierarchy(HierarchyConfig{MemLatency: 10}); err == nil {
		t.Error("empty hierarchy accepted")
	}
	cfg := DefaultHierarchy()
	cfg.MemLatency = 0
	if _, err := NewHierarchy(cfg); err == nil {
		t.Error("zero memory latency accepted")
	}
	cfg = DefaultHierarchy()
	cfg.Levels[0].LineSize = 48
	if _, err := NewHierarchy(cfg); err == nil {
		t.Error("bad level config accepted")
	}
}

func TestLevelName(t *testing.T) {
	if LevelName(LevelL0) != "L0" || LevelName(LevelMemory) != "memory" {
		t.Error("level names wrong")
	}
	if LevelName(42) == "" {
		t.Error("unknown level should render")
	}
}
