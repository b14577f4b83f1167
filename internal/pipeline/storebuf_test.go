package pipeline

import (
	"testing"

	"softerror/internal/cache"
	"softerror/internal/isa"
	"softerror/internal/workload"
)

func TestStoreToLoadForwarding(t *testing.T) {
	// A store followed immediately by a load of the same address: the load
	// must forward from the store buffer, not access the cache.
	st := blankInst(isa.ClassStore)
	st.Src1 = isa.IntReg(1)
	st.Addr = 0x5000_0000 // would miss everything if it reached the cache
	ld := blankInst(isa.ClassLoad)
	ld.Dest = isa.IntReg(5)
	ld.Src1 = isa.IntReg(1)
	ld.Addr = 0x5000_0000
	use := blankInst(isa.ClassALU)
	use.Dest = isa.IntReg(6)
	use.Src1 = isa.IntReg(5)

	p := MustNew(DefaultConfig(), &scriptSource{insts: []isa.Inst{st, ld, use}}, newMem(t))
	tr := p.Run(3, true)
	if tr.ForwardedLoads != 1 {
		t.Fatalf("ForwardedLoads = %d, want 1", tr.ForwardedLoads)
	}
	var cacheLoads uint64
	for _, n := range tr.LoadsByLevel {
		cacheLoads += n
	}
	if cacheLoads != 0 {
		t.Fatalf("forwarded load accessed the cache: %v", tr.LoadsByLevel)
	}
	// Forwarding is fast: no 200-cycle memory stall.
	if tr.Cycles > 100 {
		t.Fatalf("forwarded load stalled %d cycles", tr.Cycles)
	}
}

func TestStoreDrainsToCache(t *testing.T) {
	st := blankInst(isa.ClassStore)
	st.Src1 = isa.IntReg(1)
	st.Addr = 0x7000
	p := MustNew(DefaultConfig(), &scriptSource{insts: []isa.Inst{st}}, newMem(t))
	tr := p.Run(60, true)
	if len(tr.StoreBuffer) == 0 {
		t.Fatal("no store-buffer residency recorded")
	}
	r := tr.StoreBuffer[0]
	if !r.Issued || r.Evict <= r.Enq {
		t.Fatalf("store-buffer residency malformed: %+v", r)
	}
	if drain := r.Evict - r.Enq; drain < uint64(DefaultConfig().StoreDrainLatency) {
		t.Fatalf("store drained after %d cycles, want >= %d", drain, DefaultConfig().StoreDrainLatency)
	}
	// After draining, the line is in the cache.
	if found, dirty := p.mem.Level(cache.LevelL0).Lookup(0x7000); !found || !dirty {
		t.Fatalf("drained store not dirty in L0: found=%v dirty=%v", found, dirty)
	}
}

func TestStoreBufferFullStallsIssue(t *testing.T) {
	// More back-to-back stores than buffer entries: with one drain per
	// cycle after the drain latency, issue must stall on the full buffer
	// rather than overflow it.
	cfg := DefaultConfig()
	cfg.StoreBufferSize = 2
	cfg.StoreDrainLatency = 20
	var insts []isa.Inst
	for i := 0; i < 12; i++ {
		st := blankInst(isa.ClassStore)
		st.Src1 = isa.IntReg(1)
		st.Addr = uint64(0x8000 + 64*i)
		insts = append(insts, st)
	}
	p := MustNew(cfg, &scriptSource{insts: insts}, newMem(t))
	tr := p.Run(12, true)
	// 12 stores through a 2-entry buffer draining every ~20 cycles: the
	// run must take far longer than an unconstrained pipe would.
	if tr.Cycles < 100 {
		t.Fatalf("full store buffer did not throttle: %d cycles", tr.Cycles)
	}
	if len(tr.StoreBuffer) != 12 {
		t.Fatalf("store-buffer residencies = %d, want 12", len(tr.StoreBuffer))
	}
	// Occupancy never exceeds capacity.
	var occ uint64
	for _, r := range tr.StoreBuffer {
		occ += r.Occupancy()
	}
	if max := tr.Cycles * uint64(cfg.StoreBufferSize); occ > max {
		t.Fatalf("store-buffer occupancy %d exceeds capacity %d", occ, max)
	}
}

func TestStoreBufferConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StoreBufferSize = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero store buffer accepted")
	}
	cfg = DefaultConfig()
	cfg.StoreDrainLatency = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero drain latency accepted")
	}
}

func TestStoreBufferWithGenerator(t *testing.T) {
	gen := workload.MustNew(workload.Default())
	mem := cache.MustNewDefault()
	workload.WarmCaches(mem)
	p := MustNew(DefaultConfig(), gen, mem)
	tr := p.Run(20000, true)
	if len(tr.StoreBuffer) == 0 {
		t.Fatal("generator run recorded no store-buffer residencies")
	}
	if tr.ForwardedLoads == 0 {
		t.Fatal("no store-to-load forwarding in a mixed workload")
	}
	for _, r := range tr.StoreBuffer {
		if r.Inst.Class != isa.ClassStore {
			t.Fatalf("non-store in store buffer: %v", r.Inst)
		}
		if r.Inst.WrongPath || r.Inst.PredFalse {
			t.Fatalf("squashable store drained: %v", r.Inst)
		}
	}
}
