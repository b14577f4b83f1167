package ace

import (
	"testing"

	"softerror/internal/cache"
	"softerror/internal/isa"
	"softerror/internal/pipeline"
	"softerror/internal/workload"
)

func sbTrace(cycles uint64, cap int, log []isa.Inst, res []pipeline.Residency) *pipeline.Trace {
	return &pipeline.Trace{
		Stats:          pipeline.Stats{Cycles: cycles},
		IQSize:         64,
		CommitLog:      log,
		StoreBuffer:    res,
		StoreBufferCap: cap,
	}
}

func TestStoreBufferLiveStoreFullyACE(t *testing.T) {
	b := &logBuilder{}
	st := b.store(isa.IntReg(1), 0x100)
	b.load(isa.IntReg(5), 0x100) // keeps the store live (and load live-out)
	tr := sbTrace(100, 1, b.log, []pipeline.Residency{
		{Inst: b.log[st], Enq: 0, Evict: 10, Issued: true, Issue: 10},
	})
	r := AnalyzeStoreBuffer(tr, AnalyzeDeadness(b.log))
	if want := uint64(10 * SBEntryBits); r.ACEBC != want {
		t.Fatalf("live store ACEBC = %d, want %d", r.ACEBC, want)
	}
	if r.DeadDataBC != 0 {
		t.Fatal("live store should have no dead data")
	}
	if r.SDCAVF() != float64(10*SBEntryBits)/float64(r.TotalBC()) {
		t.Fatal("SDC AVF arithmetic wrong")
	}
}

func TestStoreBufferDeadStoreSplit(t *testing.T) {
	b := &logBuilder{}
	st := b.store(isa.IntReg(1), 0x200)
	b.store(isa.IntReg(2), 0x200) // overwrite unread: st is FDD-mem
	tr := sbTrace(100, 1, b.log, []pipeline.Residency{
		{Inst: b.log[st], Enq: 0, Evict: 10, Issued: true, Issue: 10},
	})
	r := AnalyzeStoreBuffer(tr, AnalyzeDeadness(b.log))
	if want := uint64(10 * SBAddrBits); r.ACEBC != want {
		t.Fatalf("dead store ACEBC = %d, want %d (address bits stay ACE)", r.ACEBC, want)
	}
	if want := uint64(10 * SBDataBits); r.DeadDataBC != want {
		t.Fatalf("dead store DeadDataBC = %d, want %d", r.DeadDataBC, want)
	}
	if r.FalseDUEAVF() <= 0 {
		t.Fatal("dead store data should be a false-DUE source")
	}
}

func TestStoreBufferEmpty(t *testing.T) {
	r := AnalyzeStoreBuffer(sbTrace(100, 4, nil, nil), AnalyzeDeadness(nil))
	if r.IdleFraction() != 1 || r.SDCAVF() != 0 {
		t.Fatalf("empty buffer should be fully idle: %+v", r)
	}
	zero := AnalyzeStoreBuffer(&pipeline.Trace{}, AnalyzeDeadness(nil))
	if zero.SDCAVF() != 0 || zero.DUEAVF() != 0 {
		t.Fatal("zero-capacity buffer should report zero AVFs")
	}
}

func TestStoreBufferIntegration(t *testing.T) {
	gen := workload.MustNew(workload.Default())
	mem := cache.MustNewDefault()
	workload.WarmCaches(mem)
	p := pipeline.MustNew(pipeline.DefaultConfig(), gen, mem)
	tr := p.Run(20000, true)
	dead := AnalyzeDeadness(tr.CommitLog)
	r := AnalyzeStoreBuffer(tr, dead)
	if r.SDCAVF() <= 0 || r.SDCAVF() >= 1 {
		t.Fatalf("store-buffer SDC AVF = %v out of (0,1)", r.SDCAVF())
	}
	if r.FalseDUEAVF() <= 0 {
		t.Fatal("mixed workload should produce dead store data in the buffer")
	}
	if sum := r.ACEBC + r.DeadDataBC + r.IdleBC; sum != r.TotalBC() {
		t.Fatalf("classes sum to %d, want %d", sum, r.TotalBC())
	}
}
