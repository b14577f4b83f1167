package ace

import (
	"math"
	"testing"

	"softerror/internal/cache"
	"softerror/internal/isa"
	"softerror/internal/pipeline"
	"softerror/internal/workload"
)

// fakeTrace builds a minimal trace around explicit residencies and a commit
// log, for exact-arithmetic AVF tests.
func fakeTrace(cycles uint64, iqSize int, log []isa.Inst, res []pipeline.Residency) *pipeline.Trace {
	return &pipeline.Trace{
		Stats:       pipeline.Stats{Cycles: cycles},
		IQSize:      iqSize,
		CommitLog:   log,
		Residencies: res,
	}
}

func TestAnalyzeSingleACEResidency(t *testing.T) {
	b := &logBuilder{}
	b.alu(isa.IntReg(5), isa.IntReg(1), isa.RegNone) // live-out => ACE
	in := b.log[0]
	tr := fakeTrace(100, 1, b.log, []pipeline.Residency{
		{Inst: in, Enq: 0, Issue: 40, Evict: 50, Issued: true},
	})
	r := Analyze(tr)

	bits := uint64(isa.EntryPayloadBits)
	if r.TotalBC() != 100*bits {
		t.Fatalf("TotalBC = %d", r.TotalBC())
	}
	if r.ACEBC != 40*bits {
		t.Fatalf("ACEBC = %d, want %d", r.ACEBC, 40*bits)
	}
	if r.ExACEBC != 10*bits {
		t.Fatalf("ExACEBC = %d, want %d", r.ExACEBC, 10*bits)
	}
	if r.IdleBC != 50*bits {
		t.Fatalf("IdleBC = %d, want %d", r.IdleBC, 50*bits)
	}
	if got, want := r.SDCAVF(), 0.40; math.Abs(got-want) > 1e-12 {
		t.Fatalf("SDCAVF = %v, want %v", got, want)
	}
	if r.FalseDUEAVF() != 0 {
		t.Fatalf("FalseDUEAVF = %v, want 0", r.FalseDUEAVF())
	}
	if r.DUEAVF() != r.SDCAVF() {
		t.Fatal("DUE AVF of all-ACE trace should equal SDC AVF")
	}
}

func TestAnalyzeNeutralOpcodeBitsACE(t *testing.T) {
	b := &logBuilder{}
	b.nop()
	in := b.log[0]
	tr := fakeTrace(10, 1, b.log, []pipeline.Residency{
		{Inst: in, Enq: 0, Issue: 10, Evict: 10, Issued: true},
	})
	r := Analyze(tr)
	op := uint64(isa.FieldBits[isa.FieldOpcode])
	all := uint64(isa.EntryPayloadBits)
	if r.ACEBC != 10*op {
		t.Fatalf("neutral ACEBC = %d, want %d (opcode bits)", r.ACEBC, 10*op)
	}
	if r.UnACEBC[CatNeutral] != 10*(all-op) {
		t.Fatalf("neutral UnACE = %d, want %d", r.UnACEBC[CatNeutral], 10*(all-op))
	}
}

func TestAnalyzeDeadDestBitsACE(t *testing.T) {
	b := &logBuilder{}
	dead := b.alu(isa.IntReg(5), isa.IntReg(1), isa.RegNone)
	b.alu(isa.IntReg(5), isa.IntReg(2), isa.RegNone)
	tr := fakeTrace(10, 1, b.log, []pipeline.Residency{
		{Inst: b.log[dead], Enq: 0, Issue: 10, Evict: 10, Issued: true},
	})
	r := Analyze(tr)
	dst := uint64(isa.FieldBits[isa.FieldDest])
	all := uint64(isa.EntryPayloadBits)
	if r.ACEBC != 10*dst {
		t.Fatalf("dead-inst ACEBC = %d, want %d (dest bits)", r.ACEBC, 10*dst)
	}
	if r.UnACEBC[CatFDDReg] != 10*(all-dst) {
		t.Fatalf("dead UnACE = %d, want %d", r.UnACEBC[CatFDDReg], 10*(all-dst))
	}
}

func TestAnalyzeDeadStoreFullyUnACE(t *testing.T) {
	b := &logBuilder{}
	st := b.store(isa.IntReg(1), 0x100)
	b.store(isa.IntReg(2), 0x100)
	tr := fakeTrace(10, 1, b.log, []pipeline.Residency{
		{Inst: b.log[st], Enq: 0, Issue: 10, Evict: 10, Issued: true},
	})
	r := Analyze(tr)
	all := uint64(isa.EntryPayloadBits)
	if r.ACEBC != 0 {
		t.Fatalf("dead store ACEBC = %d, want 0 (no destination specifier)", r.ACEBC)
	}
	if r.UnACEBC[CatFDDMem] != 10*all {
		t.Fatalf("dead store UnACE = %d, want %d", r.UnACEBC[CatFDDMem], 10*all)
	}
}

func TestAnalyzeWrongPathAndSquashed(t *testing.T) {
	wp := isa.Inst{Seq: 50, Class: isa.ClassALU, Dest: isa.IntReg(3), Src1: isa.IntReg(1), Src2: isa.RegNone, PredGuard: isa.RegNone, WrongPath: true}
	sq := isa.Inst{Seq: 51, Class: isa.ClassALU, Dest: isa.IntReg(4), Src1: isa.IntReg(1), Src2: isa.RegNone, PredGuard: isa.RegNone}
	tr := fakeTrace(100, 2, nil, []pipeline.Residency{
		{Inst: wp, Enq: 0, Issue: 20, Evict: 25, Issued: true}, // read wrong-path
		{Inst: sq, Enq: 0, Evict: 30, Squashed: true},          // never read
	})
	r := Analyze(tr)
	all := uint64(isa.EntryPayloadBits)
	if r.UnACEBC[CatWrongPath] != 20*all {
		t.Fatalf("wrong-path UnACE = %d, want %d", r.UnACEBC[CatWrongPath], 20*all)
	}
	if r.NeverReadBC != 30*all {
		t.Fatalf("NeverReadBC = %d, want %d", r.NeverReadBC, 30*all)
	}
	if r.SDCAVF() != 0 {
		t.Fatal("no SDC contribution expected")
	}
	if r.FalseDUEAVF() == 0 {
		t.Fatal("read wrong-path state must contribute false DUE")
	}
}

func TestFalseDUERemainingLevels(t *testing.T) {
	// Hand-build a report with 10 bit-cycles in each un-ACE category.
	r := &Report{Cycles: 1000, Entries: 1, BitsPer: 1, Dead: &Deadness{
		FDDRegDist: []int{4, 600}, // half within a 512-entry PET window
	}}
	for c := Category(1); c < NumCategories; c++ {
		r.UnACEBC[c] = 10
	}
	total := float64(r.TotalBC())

	wantRemaining := map[TrackLevel]float64{
		TrackNever:       80, // nothing covered
		TrackCommit:      60, // wrong-path + pred-false gone
		TrackAntiPi:      50, // + neutral
		TrackPET:         45, // + half of fdd-reg (PET window)
		TrackRegFile:     30, // + all fdd-reg + fdd-ret
		TrackStoreBuffer: 20, // + tdd-reg
		TrackMemory:      0,  // everything
	}
	for lvl, wantBC := range wantRemaining {
		got := r.FalseDUERemaining(lvl, 512)
		want := wantBC / total
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("FalseDUERemaining(%v) = %v, want %v", lvl, got, want)
		}
	}
}

func TestFalseDUERemainingEmptyReport(t *testing.T) {
	r := &Report{Dead: &Deadness{}}
	if r.FalseDUERemaining(TrackMemory, 512) != 0 {
		t.Fatal("empty report should report 0 remaining")
	}
	if r.SDCAVF() != 0 || r.DUEAVF() != 0 {
		t.Fatal("empty report AVFs should be 0")
	}
}

func TestAnalyzeIntegrationWithPipeline(t *testing.T) {
	gen := workload.MustNew(workload.Default())
	cfg := pipeline.DefaultConfig()
	p := pipeline.MustNew(cfg, gen, cache.MustNewDefault())
	tr := p.Run(40000, true)
	r := Analyze(tr)

	// Occupancy classes partition the capacity.
	sum := r.IdleBC + r.NeverReadBC + r.ExACEBC + r.ACEBC + r.UnACETotalBC()
	if sum != r.TotalBC() {
		t.Fatalf("classes sum to %d, want %d", sum, r.TotalBC())
	}
	if r.SDCAVF() <= 0 || r.SDCAVF() >= 1 {
		t.Fatalf("SDC AVF = %v out of (0,1)", r.SDCAVF())
	}
	if r.DUEAVF() <= r.SDCAVF() {
		t.Fatalf("DUE AVF %v should exceed SDC AVF %v (false DUE adds)", r.DUEAVF(), r.SDCAVF())
	}
	if r.IdleFraction() <= 0 {
		t.Fatal("expected some idle occupancy")
	}
	// The paper's dead fraction is ~20%; our default workload should land
	// in a broad band around it.
	df := r.Dead.DeadFraction()
	if df < 0.05 || df > 0.45 {
		t.Fatalf("dead fraction = %v, want in [0.05, 0.45]", df)
	}
	// Every un-ACE category should be represented in a mixed workload.
	for _, c := range []Category{CatWrongPath, CatPredFalse, CatNeutral, CatFDDReg, CatTDDReg, CatFDDMem} {
		if r.UnACEBC[c] == 0 {
			t.Errorf("category %v has zero bit-cycles in a mixed workload", c)
		}
	}
	// Cumulative tracking must be monotone and end at zero.
	prev := math.Inf(1)
	for lvl := TrackNever; lvl <= TrackMemory; lvl++ {
		rem := r.FalseDUERemaining(lvl, 512)
		if rem > prev+1e-12 {
			t.Fatalf("remaining false DUE increased at level %v", lvl)
		}
		prev = rem
	}
	if rem := r.FalseDUERemaining(TrackMemory, 512); rem != 0 {
		t.Fatalf("full tracking leaves %v false DUE, want 0 (100%% coverage)", rem)
	}
}

func TestAnalyzeSquashReducesSDC(t *testing.T) {
	run := func(trigger pipeline.Trigger) *Report {
		params := workload.Default()
		params.L0Frac, params.L1Frac, params.L2Frac, params.MemFrac = 0.70, 0.15, 0.10, 0.05
		gen := workload.MustNew(params)
		cfg := pipeline.DefaultConfig()
		cfg.SquashTrigger = trigger
		p := pipeline.MustNew(cfg, gen, cache.MustNewDefault())
		return Analyze(p.Run(40000, true))
	}
	base := run(pipeline.TriggerNone)
	squash := run(pipeline.TriggerL1Miss)
	if squash.SDCAVF() >= base.SDCAVF() {
		t.Fatalf("squash did not reduce SDC AVF: base %.4f squash %.4f",
			base.SDCAVF(), squash.SDCAVF())
	}
	if squash.DUEAVF() >= base.DUEAVF() {
		t.Fatalf("squash did not reduce DUE AVF: base %.4f squash %.4f",
			base.DUEAVF(), squash.DUEAVF())
	}
}

func TestYBranchBound(t *testing.T) {
	// A lone ACE branch residency: the whole ACE share is control.
	br := isa.Inst{Seq: 0, Class: isa.ClassBranch, Dest: isa.RegNone,
		Src1: isa.IntReg(1), Src2: isa.RegNone, PredGuard: isa.RegNone}
	tr := fakeTrace(10, 1, []isa.Inst{br}, []pipeline.Residency{
		{Inst: br, Enq: 0, Issue: 10, Evict: 10, Issued: true},
	})
	r := Analyze(tr)
	if r.YBranchBound() != r.SDCAVF() {
		t.Fatalf("branch-only trace: bound %v != SDC %v", r.YBranchBound(), r.SDCAVF())
	}
	// Integration: the bound is a small fraction of the total SDC AVF —
	// the paper's "not more than a few percentage points".
	gen := workload.MustNew(workload.Default())
	mem := cache.MustNewDefault()
	workload.WarmCaches(mem)
	p := pipeline.MustNew(pipeline.DefaultConfig(), gen, mem)
	full := Analyze(p.Run(20000, true))
	if full.YBranchBound() <= 0 {
		t.Fatal("mixed workload should have some control ACE")
	}
	if full.YBranchBound() > 0.10 {
		t.Fatalf("Y-branch bound %v implausibly high", full.YBranchBound())
	}
	if full.YBranchBound() >= full.SDCAVF() {
		t.Fatal("control cannot exceed total ACE")
	}
}

func TestPerFieldBreakdownConsistent(t *testing.T) {
	gen := workload.MustNew(workload.Default())
	mem := cache.MustNewDefault()
	workload.WarmCaches(mem)
	p := pipeline.MustNew(pipeline.DefaultConfig(), gen, mem)
	r := Analyze(p.Run(20000, true))

	// The per-field decomposition must re-sum to the aggregate ACE and
	// un-ACE totals (same bit-level ground truth, different grouping).
	var fieldACE, fieldUn uint64
	for f := isa.Field(0); f < isa.NumFields; f++ {
		fieldACE += r.FieldACEBC[f]
		fieldUn += r.FieldUnACEBC[f]
	}
	if fieldACE != r.ACEBC {
		t.Fatalf("per-field ACE %d != aggregate %d", fieldACE, r.ACEBC)
	}
	if fieldUn != r.UnACETotalBC() {
		t.Fatalf("per-field un-ACE %d != aggregate %d", fieldUn, r.UnACETotalBC())
	}
	// Destination specifiers are disproportionately ACE (dead instructions
	// keep them ACE), so dest's ACE share must exceed imm's.
	destShare := float64(r.FieldACEBC[isa.FieldDest]) / float64(isa.FieldBits[isa.FieldDest])
	immShare := float64(r.FieldACEBC[isa.FieldImm]) / float64(isa.FieldBits[isa.FieldImm])
	if destShare <= immShare {
		t.Fatalf("dest per-bit ACE %.0f should exceed imm %.0f", destShare, immShare)
	}
	// Opcode bits are ACE for neutral instructions too, so opcode beats imm
	// as well.
	opShare := float64(r.FieldACEBC[isa.FieldOpcode]) / float64(isa.FieldBits[isa.FieldOpcode])
	if opShare <= immShare {
		t.Fatalf("opcode per-bit ACE %.0f should exceed imm %.0f", opShare, immShare)
	}
}
