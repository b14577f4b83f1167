package ace

import (
	"testing"

	"softerror/internal/cache"
	"softerror/internal/isa"
	"softerror/internal/pipeline"
	"softerror/internal/workload"
)

// regTrace builds a trace from a commit log with explicit cycles.
func regTrace(cycles uint64, log []isa.Inst, at []uint64) *pipeline.Trace {
	return &pipeline.Trace{
		Stats:        pipeline.Stats{Cycles: cycles},
		IQSize:       64,
		CommitLog:    log,
		CommitCycles: at,
	}
}

func TestRegFileEmpty(t *testing.T) {
	rep := AnalyzeRegFile(regTrace(100, nil, nil), AnalyzeDeadness(nil))
	if rep.UntouchedFraction() != 1 {
		t.Fatalf("empty trace untouched = %v, want 1", rep.UntouchedFraction())
	}
	if rep.SDCAVF() != 0 || rep.DUEAVF() != 0 {
		t.Fatal("empty trace should have zero AVFs")
	}
}

func TestRegFileLiveValueWindow(t *testing.T) {
	// r5 defined at cycle 10, read by a live consumer at cycle 40,
	// overwritten at cycle 60; new value live-out to cycle 100.
	b := &logBuilder{}
	b.alu(isa.IntReg(5), isa.IntReg(1), isa.RegNone) // def
	use := b.alu(isa.IntReg(6), isa.IntReg(5), isa.RegNone)
	b.store(isa.IntReg(6), 0x100) // keeps the consumer live
	b.load(isa.IntReg(7), 0x100)
	b.alu(isa.IntReg(5), isa.IntReg(2), isa.RegNone) // overwrite
	_ = use
	at := []uint64{10, 40, 45, 50, 60}
	tr := regTrace(100, b.log, at)
	rep := AnalyzeRegFile(tr, AnalyzeDeadness(b.log))

	// First r5 value: ACE 10..40 (30 cycles), Ex-ACE 40..60 (20 cycles).
	// The second value and others are live-out ACE; check the components
	// are present rather than reconstructing every register.
	if rep.ACEBC == 0 || rep.ExACEBC == 0 {
		t.Fatalf("expected ACE and Ex-ACE bit-cycles, got %+v", rep)
	}
	wantEx := uint64(20 * IntRegBits)
	if rep.ExACEBC != wantEx {
		t.Fatalf("ExACEBC = %d, want %d", rep.ExACEBC, wantEx)
	}
}

func TestRegFileDeadReadWindow(t *testing.T) {
	// r5's only reader is itself dead: the read window counts as DeadRead
	// (false-DUE source), not ACE.
	b := &logBuilder{}
	b.alu(isa.IntReg(5), isa.IntReg(1), isa.RegNone)       // def r5 @10
	dr := b.alu(isa.IntReg(6), isa.IntReg(5), isa.RegNone) // dead reader @30
	b.alu(isa.IntReg(6), isa.IntReg(2), isa.RegNone)       // kill reader @40
	b.alu(isa.IntReg(5), isa.IntReg(2), isa.RegNone)       // overwrite r5 @50
	at := []uint64{10, 30, 40, 50}
	tr := regTrace(100, b.log, at)
	dead := AnalyzeDeadness(b.log)
	if got := dead.OfPos(dr); got != CatFDDReg {
		t.Fatalf("reader should be fdd-reg, got %v", got)
	}
	rep := AnalyzeRegFile(tr, dead)
	// r5 value 1: def @10, dead read @30, overwrite @50: DeadRead 10..30,
	// Ex-ACE 30..50.
	wantDead := uint64(20 * IntRegBits)
	if rep.DeadReadBC != wantDead {
		t.Fatalf("DeadReadBC = %d, want %d", rep.DeadReadBC, wantDead)
	}
	if rep.FalseDUEAVF() <= 0 {
		t.Fatal("dead reads should produce regfile false DUE")
	}
}

func TestRegFileNeverReadValue(t *testing.T) {
	// A value overwritten without any read is pure Ex-ACE.
	b := &logBuilder{}
	b.alu(isa.IntReg(5), isa.IntReg(1), isa.RegNone) // def @10
	b.alu(isa.IntReg(5), isa.IntReg(2), isa.RegNone) // overwrite @30
	at := []uint64{10, 30}
	rep := AnalyzeRegFile(regTrace(100, b.log, at), AnalyzeDeadness(b.log))
	if rep.ExACEBC < uint64(20*IntRegBits) {
		t.Fatalf("ExACEBC = %d, want >= %d", rep.ExACEBC, 20*IntRegBits)
	}
	if rep.DeadReadBC != 0 {
		t.Fatalf("DeadReadBC = %d, want 0 (no reads at all)", rep.DeadReadBC)
	}
}

func TestRegFileLiveOutConservative(t *testing.T) {
	b := &logBuilder{}
	b.alu(isa.IntReg(5), isa.IntReg(1), isa.RegNone) // def @10, never overwritten
	at := []uint64{10}
	rep := AnalyzeRegFile(regTrace(100, b.log, at), AnalyzeDeadness(b.log))
	if want := uint64(90 * IntRegBits); rep.ACEBC != want {
		t.Fatalf("live-out ACEBC = %d, want %d", rep.ACEBC, want)
	}
}

func TestRegFileClassesPartition(t *testing.T) {
	gen := workload.MustNew(workload.Default())
	mem := cache.MustNewDefault()
	workload.WarmCaches(mem)
	p := pipeline.MustNew(pipeline.DefaultConfig(), gen, mem)
	tr := p.Run(30000, true)
	dead := AnalyzeDeadness(tr.CommitLog)
	rep := AnalyzeRegFile(tr, dead)
	sum := rep.ACEBC + rep.DeadReadBC + rep.ExACEBC + rep.UntouchedBC
	if sum != rep.TotalBC {
		t.Fatalf("classes sum to %d, want %d", sum, rep.TotalBC)
	}
	if rep.SDCAVF() <= 0 || rep.SDCAVF() >= 1 {
		t.Fatalf("regfile SDC AVF = %v out of (0,1)", rep.SDCAVF())
	}
	if rep.FalseDUEAVF() <= 0 {
		t.Fatal("mixed workload should produce some regfile false DUE")
	}
	if rep.DUEAVF() <= rep.SDCAVF() {
		t.Fatal("regfile DUE AVF should exceed SDC AVF")
	}
	// Sanity: predicates and FP widen the file; the integer file alone
	// cannot exceed its share of capacity.
	intShare := float64(isa.NumIntRegs*IntRegBits) / float64(regFileCapacityBits)
	if rep.SDCAVF() > intShare+float64(isa.NumFPRegs*FPRegBits)/float64(regFileCapacityBits)+0.05 {
		t.Fatalf("regfile SDC AVF %v implausibly high", rep.SDCAVF())
	}
}

func TestRegFileWidths(t *testing.T) {
	if regBits(isa.IntReg(3)) != IntRegBits {
		t.Error("int width wrong")
	}
	if regBits(isa.FPReg(3)) != FPRegBits {
		t.Error("fp width wrong")
	}
	if regBits(isa.PredReg(3)) != PredRegBits {
		t.Error("pred width wrong")
	}
	want := uint64(128*64 + 128*82 + 64*1)
	if regFileCapacityBits != want {
		t.Fatalf("capacity = %d bits, want %d", regFileCapacityBits, want)
	}
}
