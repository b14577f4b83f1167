package workload

import (
	"math"
	"testing"

	"softerror/internal/isa"
)

func TestParamsValidateDefault(t *testing.T) {
	p := Default()
	if err := p.Validate(); err != nil {
		t.Fatalf("Default() does not validate: %v", err)
	}
}

func TestParamsValidateRejects(t *testing.T) {
	cases := []func(*Params){
		func(p *Params) { p.LoadFrac = -0.1 },
		func(p *Params) { p.NopFrac = 1.5 },
		func(p *Params) { p.MispredictRate = 2 },
		func(p *Params) { p.LoadFrac = 0.6; p.StoreFrac = 0.6 },
		func(p *Params) { p.L0Frac = 0; p.L1Frac = 0; p.L2Frac = 0; p.MemFrac = 0 },
		func(p *Params) { p.MeanBlockLen = 0 },
		func(p *Params) { p.MeanCalleeLen = 0 },
		func(p *Params) { p.DepDistance = 0 },
	}
	for i, mutate := range cases {
		p := Default()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid Params validated", i)
		}
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	p := Default()
	p.MeanBlockLen = 0
	if _, err := New(p); err == nil {
		t.Fatal("New accepted invalid Params")
	}
}

func TestDeterministicStream(t *testing.T) {
	a := MustNew(Default())
	b := MustNew(Default())
	for i := 0; i < 5000; i++ {
		ia, ib := a.Next(), b.Next()
		if ia != ib {
			t.Fatalf("instruction %d differs:\n a=%v\n b=%v", i, ia, ib)
		}
	}
}

func TestSeqMonotonic(t *testing.T) {
	g := MustNew(Default())
	var prev uint64
	for i := 0; i < 10000; i++ {
		var in isa.Inst
		if i%7 == 3 {
			in = g.NextWrong()
		} else {
			in = g.Next()
		}
		if i > 0 && in.Seq != prev+1 {
			t.Fatalf("sequence gap at %d: %d -> %d", i, prev, in.Seq)
		}
		prev = in.Seq
	}
}

// drawMix draws n correct-path instructions and returns per-class fractions.
func drawMix(t *testing.T, p Params, n int) (map[isa.Class]float64, *Generator) {
	t.Helper()
	g := MustNew(p)
	counts := map[isa.Class]int{}
	for i := 0; i < n; i++ {
		in := g.Next()
		if !in.Class.Valid() {
			t.Fatalf("invalid class at %d: %v", i, in)
		}
		counts[in.Class]++
	}
	fracs := map[isa.Class]float64{}
	for c, k := range counts {
		fracs[c] = float64(k) / float64(n)
	}
	return fracs, g
}

func TestMixApproximatesParams(t *testing.T) {
	p := Default()
	const n = 200000
	fracs, _ := drawMix(t, p, n)

	// Mix params are weights over *body* instructions; control flow and
	// idiom-expansion instructions dilute the realised fractions, so check
	// relative to the parameter with a generous band.
	approx := func(name string, got, want float64) {
		t.Helper()
		if got < 0.6*want || got > 1.1*want {
			t.Errorf("%s fraction = %.4f, want within [0.6, 1.1]x of %.4f", name, got, want)
		}
	}
	approx("nop", fracs[isa.ClassNop], p.NopFrac)
	approx("prefetch", fracs[isa.ClassPrefetch], p.PrefetchFrac)
	approx("load", fracs[isa.ClassLoad], p.LoadFrac)
	// Branch fraction: one block-terminator roughly every MeanBlockLen+1
	// instructions.
	wantBr := 1.0 / float64(p.MeanBlockLen+1)
	approx("branch+call+return", fracs[isa.ClassBranch]+fracs[isa.ClassCall]+fracs[isa.ClassReturn], wantBr)
}

func TestCallsBalanceReturns(t *testing.T) {
	g := MustNew(Default())
	calls, rets := 0, 0
	depth := 0
	for i := 0; i < 100000; i++ {
		in := g.Next()
		switch in.Class {
		case isa.ClassCall:
			calls++
			depth++
		case isa.ClassReturn:
			rets++
			depth--
		}
		if depth < 0 {
			t.Fatalf("return without matching call at instruction %d", i)
		}
		if depth > maxCallDepth {
			t.Fatalf("call depth %d exceeds cap", depth)
		}
	}
	if calls == 0 {
		t.Fatal("no calls emitted")
	}
	if diff := calls - rets; diff < 0 || diff > maxCallDepth {
		t.Fatalf("calls=%d returns=%d unbalanced", calls, rets)
	}
}

func TestCallDepthStamped(t *testing.T) {
	g := MustNew(Default())
	depth := 0
	for i := 0; i < 50000; i++ {
		in := g.Next()
		// The stamp reflects depth *after* the call/return executes for
		// calls (callee side), matching the generator's bookkeeping.
		switch in.Class {
		case isa.ClassCall:
			depth++
		case isa.ClassReturn:
			depth--
		default:
			if int(in.CallDepth) != depth {
				t.Fatalf("inst %d: CallDepth=%d, tracker=%d", i, in.CallDepth, depth)
			}
		}
	}
}

func TestScratchRegistersNeverRead(t *testing.T) {
	g := MustNew(Default())
	for i := 0; i < 100000; i++ {
		in := g.Next()
		for _, src := range []isa.Reg{in.Src1, in.Src2} {
			if src.IsInt() && int(src) >= scratchLo && int(src) <= scratchHi {
				t.Fatalf("instruction %d reads scratch register %v: %v", i, src, in)
			}
		}
	}
}

func TestTDDPoolReadOnlyByChains(t *testing.T) {
	// TDD-pool registers may be read, but only by instructions whose own
	// destination is in the scratch/TDD pool or a dead store — i.e. the
	// designated dead consumers. A live-dest instruction must never source
	// a TDD-pool register.
	g := MustNew(Default())
	for i := 0; i < 100000; i++ {
		in := g.Next()
		readsTDD := false
		for _, src := range []isa.Reg{in.Src1, in.Src2} {
			if src.IsInt() && int(src) >= tddLo && int(src) <= tddHi {
				readsTDD = true
			}
		}
		if !readsTDD {
			continue
		}
		deadDest := in.Dest.IsInt() &&
			((int(in.Dest) >= scratchLo && int(in.Dest) <= scratchHi) ||
				(int(in.Dest) >= tddLo && int(in.Dest) <= tddHi))
		if !deadDest && in.Class != isa.ClassStore {
			t.Fatalf("instruction %d reads TDD pool with live dest: %v", i, in)
		}
	}
}

func TestDeadStoreAddressesNeverLoaded(t *testing.T) {
	g := MustNew(Default())
	for i := 0; i < 100000; i++ {
		in := g.Next()
		if in.Class == isa.ClassLoad && in.Addr >= deadBase && in.Addr < deadBase+deadSize {
			t.Fatalf("instruction %d loads from dead-store ring: %v", i, in)
		}
	}
}

func TestPredicationStats(t *testing.T) {
	p := Default()
	p.PredicatedFrac = 0.3
	p.PredFalseProb = 0.4
	g := MustNew(p)
	const n = 200000
	for i := 0; i < n; i++ {
		g.Next()
	}
	st := g.Stats()
	predFrac := float64(st.Predicated) / float64(st.Total)
	// Only ALU/FP/load/store bodies are predication-eligible, so the
	// realised fraction is below the parameter; it must still be material.
	if predFrac < 0.05 || predFrac > p.PredicatedFrac {
		t.Errorf("predicated fraction = %.3f, want in (0.05, %.2f]", predFrac, p.PredicatedFrac)
	}
	if st.Predicated > 0 {
		falseFrac := float64(st.PredFalse) / float64(st.Predicated)
		if math.Abs(falseFrac-p.PredFalseProb) > 0.05 {
			t.Errorf("pred-false fraction = %.3f, want ~%.2f", falseFrac, p.PredFalseProb)
		}
	}
}

func TestMispredictRate(t *testing.T) {
	p := Default()
	p.MispredictRate = 0.10
	g := MustNew(p)
	branches, mispred := 0, 0
	for i := 0; i < 300000; i++ {
		in := g.Next()
		if in.Class == isa.ClassBranch {
			branches++
			if in.Mispred {
				mispred++
			}
		}
	}
	if branches == 0 {
		t.Fatal("no branches")
	}
	rate := float64(mispred) / float64(branches)
	if math.Abs(rate-0.10) > 0.02 {
		t.Errorf("mispredict rate = %.3f, want ~0.10", rate)
	}
}

func TestWrongPathInstructions(t *testing.T) {
	g := MustNew(Default())
	for i := 0; i < 10000; i++ {
		in := g.NextWrong()
		if !in.WrongPath {
			t.Fatal("NextWrong produced a correct-path instruction")
		}
		if in.Committed() {
			t.Fatal("wrong-path instruction reports Committed")
		}
		if !in.Class.Valid() {
			t.Fatalf("invalid wrong-path class: %v", in)
		}
	}
	if g.Stats().WrongPath != 10000 {
		t.Fatalf("WrongPath stat = %d, want 10000", g.Stats().WrongPath)
	}
}

func TestAddrRegions(t *testing.T) {
	p := Default()
	p.L0Frac, p.L1Frac, p.L2Frac, p.MemFrac = 0.25, 0.25, 0.25, 0.25
	p.MissBurstiness = 0 // disable clustering so fractions match weights
	g := MustNew(p)
	var hot, warm, big, huge int
	total := 0
	for i := 0; i < 400000; i++ {
		in := g.Next()
		if in.Class != isa.ClassLoad {
			continue
		}
		total++
		switch {
		case in.Addr >= hotBase && in.Addr < hotBase+hotSize:
			hot++
		case in.Addr >= warmBase && in.Addr < warmBase+warmSize:
			warm++
		case in.Addr >= bigBase && in.Addr < bigBase+bigSize:
			big++
		case in.Addr >= hugeBase && in.Addr < hugeBase+hugeSize:
			huge++
		default:
			t.Fatalf("load address %#x in no region", in.Addr)
		}
	}
	if total == 0 {
		t.Fatal("no loads")
	}
	for name, k := range map[string]int{"hot": hot, "warm": warm, "big": big, "huge": huge} {
		frac := float64(k) / float64(total)
		if math.Abs(frac-0.25) > 0.03 {
			t.Errorf("%s region fraction = %.3f, want ~0.25", name, frac)
		}
	}
}

func TestAddressAlignment(t *testing.T) {
	g := MustNew(Default())
	for i := 0; i < 50000; i++ {
		in := g.Next()
		if in.Class.IsMem() && in.Addr%accessAlign != 0 {
			t.Fatalf("misaligned address %#x in %v", in.Addr, in)
		}
	}
}

func TestDeadIntentFractions(t *testing.T) {
	p := Default()
	g := MustNew(p)
	const n = 300000
	for i := 0; i < n; i++ {
		g.Next()
	}
	st := g.Stats()
	deadIntent := float64(st.IntentFDDReg+st.IntentTDDReg+st.IntentFDDMem+st.IntentTDDMem) / float64(st.Total)
	// The paper reports ~20% dynamically dead instructions; the explicit
	// dead idioms should put us in that neighbourhood before counting
	// return-dead locals.
	if deadIntent < 0.08 || deadIntent > 0.35 {
		t.Errorf("explicit dead intent fraction = %.3f, want in [0.08, 0.35]", deadIntent)
	}
	if st.IntentLocal == 0 {
		t.Error("no procedure-local writes emitted")
	}
}

func TestRecentRing(t *testing.T) {
	r := newRecentRing(4)
	s := MustNew(Default()).mix
	if got := r.pick(s, 0.5); got != isa.RegNone {
		t.Fatalf("empty ring pick = %v, want RegNone", got)
	}
	r.push(isa.IntReg(1))
	r.push(isa.IntReg(2))
	for i := 0; i < 100; i++ {
		got := r.pick(s, 0.5)
		if got != isa.IntReg(1) && got != isa.IntReg(2) {
			t.Fatalf("pick returned %v not in ring", got)
		}
	}
	// Overflow wraps.
	for i := 3; i <= 10; i++ {
		r.push(isa.IntReg(i))
	}
	for i := 0; i < 100; i++ {
		got := r.pick(s, 0.5)
		if int(got) < 7 || int(got) > 10 {
			t.Fatalf("pick returned evicted register %v", got)
		}
	}
}

func TestRRCounterWraps(t *testing.T) {
	c := rrCounter{lo: 5, hi: 7}
	seen := map[int]int{}
	for i := 0; i < 9; i++ {
		seen[c.take()]++
	}
	for v := 5; v <= 7; v++ {
		if seen[v] != 3 {
			t.Fatalf("rrCounter value %d taken %d times, want 3", v, seen[v])
		}
	}
}

func BenchmarkGeneratorNext(b *testing.B) {
	g := MustNew(Default())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.Next()
	}
}

func TestTablePredictorsProduceOrganicRates(t *testing.T) {
	for _, model := range []string{"gshare", "bimodal"} {
		p := Default()
		p.BranchPredictor = model
		g := MustNew(p)
		branches, mispred := 0, 0
		for i := 0; i < 200000; i++ {
			in := g.Next()
			if in.Class == isa.ClassBranch {
				branches++
				if in.Mispred {
					mispred++
				}
			}
		}
		if branches == 0 {
			t.Fatalf("%s: no branches", model)
		}
		rate := float64(mispred) / float64(branches)
		// Synthetic branch outcomes are random coin flips at TakenProb, so
		// table predictors converge near the entropy floor: they learn the
		// bias but not the (nonexistent) pattern.
		if rate <= 0.05 || rate >= 0.60 {
			t.Errorf("%s: organic mispredict rate %.3f implausible", model, rate)
		}
	}
}

func TestIOInstructionsEmitted(t *testing.T) {
	p := Default()
	p.IOFrac = 0.01 // exaggerate for the test
	g := MustNew(p)
	ios := 0
	for i := 0; i < 100000; i++ {
		in := g.Next()
		if in.Class == isa.ClassIO {
			ios++
			if in.Src1 == isa.RegNone {
				t.Fatal("I/O write without a value source")
			}
			if in.Addr < ioBase || in.Addr >= ioBase+ioSize {
				t.Fatalf("I/O address %#x outside device region", in.Addr)
			}
		}
	}
	if ios == 0 {
		t.Fatal("no I/O instructions emitted")
	}
}
