package ace

import (
	"math/rand"
	"reflect"
	"testing"

	"softerror/internal/isa"
	"softerror/internal/pipeline"
)

// logBuilder assembles committed-instruction logs for deadness tests.
type logBuilder struct {
	log   []isa.Inst
	seq   uint64
	depth uint8
}

func (b *logBuilder) add(in isa.Inst) int {
	in.Seq = b.seq
	in.CallDepth = b.depth
	b.seq++
	b.log = append(b.log, in)
	return len(b.log) - 1
}

func (b *logBuilder) alu(dest, src1, src2 isa.Reg) int {
	return b.add(isa.Inst{Class: isa.ClassALU, Dest: dest, Src1: src1, Src2: src2, PredGuard: isa.RegNone})
}

func (b *logBuilder) load(dest isa.Reg, addr uint64) int {
	return b.add(isa.Inst{Class: isa.ClassLoad, Dest: dest, Src1: isa.IntReg(1), Src2: isa.RegNone, PredGuard: isa.RegNone, Addr: addr})
}

func (b *logBuilder) store(val isa.Reg, addr uint64) int {
	return b.add(isa.Inst{Class: isa.ClassStore, Dest: isa.RegNone, Src1: val, Src2: isa.RegNone, PredGuard: isa.RegNone, Addr: addr})
}

func (b *logBuilder) nop() int {
	return b.add(isa.Inst{Class: isa.ClassNop, Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone, PredGuard: isa.RegNone})
}

func (b *logBuilder) call() int {
	i := b.add(isa.Inst{Class: isa.ClassCall, Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone, PredGuard: isa.RegNone})
	b.depth++
	return i
}

func (b *logBuilder) ret() int {
	b.depth--
	return b.add(isa.Inst{Class: isa.ClassReturn, Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone, PredGuard: isa.RegNone})
}

func TestFDDRegOverwriteWithoutRead(t *testing.T) {
	b := &logBuilder{}
	dead := b.alu(isa.IntReg(5), isa.IntReg(1), isa.RegNone)
	b.alu(isa.IntReg(5), isa.IntReg(2), isa.RegNone) // overwrite, no read
	b.alu(isa.IntReg(9), isa.IntReg(5), isa.RegNone) // keep second write live... needs overwrite too
	d := AnalyzeDeadness(b.log)
	if got := d.OfPos(dead); got != CatFDDReg {
		t.Fatalf("overwritten-unread write classified %v, want fdd-reg", got)
	}
}

func TestLiveReadBeforeOverwrite(t *testing.T) {
	b := &logBuilder{}
	def := b.alu(isa.IntReg(5), isa.IntReg(1), isa.RegNone)
	use := b.alu(isa.IntReg(6), isa.IntReg(5), isa.RegNone)
	b.store(isa.IntReg(6), 0x100) // live store keeps the user live
	b.load(isa.IntReg(7), 0x100)  // the store is read
	b.alu(isa.IntReg(5), isa.IntReg(2), isa.RegNone)
	d := AnalyzeDeadness(b.log)
	if got := d.OfPos(def); got != CatACE {
		t.Fatalf("read-then-overwritten write classified %v, want ace", got)
	}
	if got := d.OfPos(use); got != CatACE {
		t.Fatalf("consumer feeding live store classified %v, want ace", got)
	}
}

func TestLiveOutConservative(t *testing.T) {
	b := &logBuilder{}
	def := b.alu(isa.IntReg(5), isa.IntReg(1), isa.RegNone)
	b.nop()
	d := AnalyzeDeadness(b.log)
	if got := d.OfPos(def); got != CatACE {
		t.Fatalf("never-overwritten write classified %v, want ace (live-out)", got)
	}
}

func TestTDDRegChain(t *testing.T) {
	b := &logBuilder{}
	producer := b.alu(isa.IntReg(5), isa.IntReg(1), isa.RegNone)
	terminal := b.alu(isa.IntReg(6), isa.IntReg(5), isa.RegNone) // reads 5, writes 6
	b.alu(isa.IntReg(6), isa.IntReg(2), isa.RegNone)             // overwrite 6: terminal FDD
	b.alu(isa.IntReg(5), isa.IntReg(2), isa.RegNone)             // overwrite 5
	d := AnalyzeDeadness(b.log)
	if got := d.OfPos(terminal); got != CatFDDReg {
		t.Fatalf("terminal classified %v, want fdd-reg", got)
	}
	if got := d.OfPos(producer); got != CatTDDReg {
		t.Fatalf("producer classified %v, want tdd-reg", got)
	}
}

func TestTwoLevelTDDChain(t *testing.T) {
	b := &logBuilder{}
	root := b.alu(isa.IntReg(5), isa.IntReg(1), isa.RegNone)
	mid := b.alu(isa.IntReg(6), isa.IntReg(5), isa.RegNone)
	term := b.alu(isa.IntReg(7), isa.IntReg(6), isa.RegNone)
	b.alu(isa.IntReg(7), isa.IntReg(2), isa.RegNone)
	b.alu(isa.IntReg(6), isa.IntReg(2), isa.RegNone)
	b.alu(isa.IntReg(5), isa.IntReg(2), isa.RegNone)
	d := AnalyzeDeadness(b.log)
	if got := d.OfPos(term); got != CatFDDReg {
		t.Fatalf("terminal = %v, want fdd-reg", got)
	}
	if got := d.OfPos(mid); got != CatTDDReg {
		t.Fatalf("mid = %v, want tdd-reg", got)
	}
	if got := d.OfPos(root); got != CatTDDReg {
		t.Fatalf("root = %v, want tdd-reg", got)
	}
}

func TestMixedConsumersStayLive(t *testing.T) {
	b := &logBuilder{}
	def := b.alu(isa.IntReg(5), isa.IntReg(1), isa.RegNone)
	deadUse := b.alu(isa.IntReg(6), isa.IntReg(5), isa.RegNone)
	b.alu(isa.IntReg(6), isa.IntReg(2), isa.RegNone) // kill dead use
	liveUse := b.alu(isa.IntReg(7), isa.IntReg(5), isa.RegNone)
	b.store(isa.IntReg(7), 0x200)
	b.load(isa.IntReg(8), 0x200)
	b.alu(isa.IntReg(5), isa.IntReg(2), isa.RegNone) // overwrite def
	d := AnalyzeDeadness(b.log)
	if got := d.OfPos(deadUse); got != CatFDDReg {
		t.Fatalf("dead consumer = %v, want fdd-reg", got)
	}
	if got := d.OfPos(liveUse); got != CatACE {
		t.Fatalf("live consumer = %v, want ace", got)
	}
	if got := d.OfPos(def); got != CatACE {
		t.Fatalf("def with one live reader = %v, want ace", got)
	}
}

func TestDeadStoreAndTDDMem(t *testing.T) {
	b := &logBuilder{}
	producer := b.alu(isa.IntReg(5), isa.IntReg(1), isa.RegNone)
	deadStore := b.store(isa.IntReg(5), 0x300)
	b.store(isa.IntReg(2), 0x300)                    // overwrite memory, no load
	b.alu(isa.IntReg(5), isa.IntReg(2), isa.RegNone) // overwrite r5
	d := AnalyzeDeadness(b.log)
	if got := d.OfPos(deadStore); got != CatFDDMem {
		t.Fatalf("dead store = %v, want fdd-mem", got)
	}
	if got := d.OfPos(producer); got != CatTDDMem {
		t.Fatalf("producer of dead store = %v, want tdd-mem", got)
	}
}

func TestStoreReadStaysLive(t *testing.T) {
	b := &logBuilder{}
	st := b.store(isa.IntReg(1), 0x400)
	ld := b.load(isa.IntReg(5), 0x400)
	b.store(isa.IntReg(2), 0x400)
	b.alu(isa.IntReg(6), isa.IntReg(5), isa.RegNone) // live-out consumer
	d := AnalyzeDeadness(b.log)
	if got := d.OfPos(st); got != CatACE {
		t.Fatalf("read store = %v, want ace", got)
	}
	if got := d.OfPos(ld); got != CatACE {
		t.Fatalf("load with live consumer = %v, want ace", got)
	}
}

func TestStoreReadOnlyByDeadLoadIsTDDMem(t *testing.T) {
	// A store whose only reader is a load whose own result dies is
	// transitively dead via memory (§4.1): only full memory tracking can
	// cover it.
	b := &logBuilder{}
	st := b.store(isa.IntReg(1), 0x400)
	ld := b.load(isa.IntReg(5), 0x400)
	b.store(isa.IntReg(2), 0x400)                    // overwrite memory
	b.alu(isa.IntReg(5), isa.IntReg(2), isa.RegNone) // overwrite load result unread
	d := AnalyzeDeadness(b.log)
	if got := d.OfPos(ld); got != CatFDDReg {
		t.Fatalf("dead load = %v, want fdd-reg", got)
	}
	if got := d.OfPos(st); got != CatTDDMem {
		t.Fatalf("store read only by dead load = %v, want tdd-mem", got)
	}
}

func TestFinalStoreConservativelyLive(t *testing.T) {
	b := &logBuilder{}
	st := b.store(isa.IntReg(1), 0x500)
	d := AnalyzeDeadness(b.log)
	if got := d.OfPos(st); got != CatACE {
		t.Fatalf("never-overwritten store = %v, want ace", got)
	}
}

func TestReturnDeadLocal(t *testing.T) {
	b := &logBuilder{}
	b.call()
	local := b.alu(isa.IntReg(40), isa.IntReg(1), isa.RegNone) // written at depth 1
	b.ret()
	b.call()
	b.alu(isa.IntReg(40), isa.IntReg(2), isa.RegNone) // overwritten in a later frame
	b.ret()
	d := AnalyzeDeadness(b.log)
	if got := d.OfPos(local); got != CatFDDRet {
		t.Fatalf("return-dead local = %v, want fdd-ret", got)
	}
}

func TestSameFrameOverwriteIsPlainFDD(t *testing.T) {
	b := &logBuilder{}
	b.call()
	first := b.alu(isa.IntReg(40), isa.IntReg(1), isa.RegNone)
	b.alu(isa.IntReg(40), isa.IntReg(2), isa.RegNone) // same frame, no return between
	b.ret()
	d := AnalyzeDeadness(b.log)
	if got := d.OfPos(first); got != CatFDDReg {
		t.Fatalf("same-frame overwrite = %v, want fdd-reg", got)
	}
}

func TestNeutralClassification(t *testing.T) {
	b := &logBuilder{}
	n := b.nop()
	pf := b.add(isa.Inst{Class: isa.ClassPrefetch, Dest: isa.RegNone, Src1: isa.IntReg(3), Src2: isa.RegNone, PredGuard: isa.RegNone, Addr: 0x600})
	d := AnalyzeDeadness(b.log)
	if got := d.OfPos(n); got != CatNeutral {
		t.Fatalf("nop = %v, want neutral", got)
	}
	if got := d.OfPos(pf); got != CatNeutral {
		t.Fatalf("prefetch = %v, want neutral", got)
	}
}

func TestPrefetchReadDoesNotKeepAlive(t *testing.T) {
	b := &logBuilder{}
	def := b.alu(isa.IntReg(5), isa.IntReg(1), isa.RegNone)
	b.add(isa.Inst{Class: isa.ClassPrefetch, Dest: isa.RegNone, Src1: isa.IntReg(5), Src2: isa.RegNone, PredGuard: isa.RegNone, Addr: 0x700})
	b.alu(isa.IntReg(5), isa.IntReg(2), isa.RegNone)
	d := AnalyzeDeadness(b.log)
	if got := d.OfPos(def); got != CatFDDReg {
		t.Fatalf("value read only by prefetch = %v, want fdd-reg", got)
	}
}

func TestPredFalseClassificationAndUses(t *testing.T) {
	b := &logBuilder{}
	// A compare producing p1, read by a pred-false instruction: the guard
	// read is a real use (it decided the instruction did nothing).
	cmp := b.add(isa.Inst{Class: isa.ClassALU, Dest: isa.PredReg(1), Src1: isa.IntReg(1), Src2: isa.IntReg(2), PredGuard: isa.RegNone})
	val := b.alu(isa.IntReg(5), isa.IntReg(1), isa.RegNone)
	pf := b.add(isa.Inst{Class: isa.ClassALU, Dest: isa.IntReg(6), Src1: isa.IntReg(5), Src2: isa.RegNone, PredGuard: isa.PredReg(1), PredFalse: true})
	b.alu(isa.IntReg(5), isa.IntReg(2), isa.RegNone) // overwrite val
	b.add(isa.Inst{Class: isa.ClassALU, Dest: isa.PredReg(1), Src1: isa.IntReg(1), Src2: isa.RegNone, PredGuard: isa.RegNone})
	d := AnalyzeDeadness(b.log)
	if got := d.OfPos(pf); got != CatPredFalse {
		t.Fatalf("pred-false inst = %v, want pred-false", got)
	}
	// The pred-false instruction's data source is NOT a real read.
	if got := d.OfPos(val); got != CatFDDReg {
		t.Fatalf("value read only by pred-false inst = %v, want fdd-reg", got)
	}
	// But its guard read is real: the compare stays live.
	if got := d.OfPos(cmp); got != CatACE {
		t.Fatalf("compare read by pred-false guard = %v, want ace", got)
	}
}

func TestBranchesAreACE(t *testing.T) {
	b := &logBuilder{}
	br := b.add(isa.Inst{Class: isa.ClassBranch, Dest: isa.RegNone, Src1: isa.IntReg(1), Src2: isa.RegNone, PredGuard: isa.RegNone, Taken: true})
	d := AnalyzeDeadness(b.log)
	if got := d.OfPos(br); got != CatACE {
		t.Fatalf("branch = %v, want ace", got)
	}
}

// TestOfFallbacks pins OfPos outside the analysed log: positions before
// or past it, and every position of a compacted analysis, are
// conservatively live.
func TestOfFallbacks(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for iter := 0; iter < 500; iter++ {
		data := make([]byte, 5*r.Intn(200))
		r.Read(data)
		log, _ := decodeDeadnessLog(data)
		d := AnalyzeDeadness(log)
		for _, i := range []int{-1, len(log), len(log) + 7} {
			if got := d.OfPos(i); got != CatACE {
				t.Fatalf("OfPos(%d) past a %d-instruction log = %v, want ACE", i, len(log), got)
			}
		}
		d.Compact()
		for i := range log {
			if got := d.OfPos(i); got != CatACE {
				t.Fatalf("compacted OfPos(%d) = %v, want ACE", i, got)
			}
		}
	}
}

// TestOfPosMatchesOfSeq pins the position accessor against the
// sequence-number lookup readers holding a residency use: an instruction
// resolved by its Seq through pipeline.LogPositions, in shuffled
// (out-of-order retire) order, reads the category OfPos gives its
// position; a Seq the log does not hold is conservatively ACE and a
// wrong-path copy is CatWrongPath.
func TestOfPosMatchesOfSeq(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for iter := 0; iter < 500; iter++ {
		data := make([]byte, 5*r.Intn(200))
		r.Read(data)
		log, _ := decodeDeadnessLog(data)
		for i := range log {
			log[i].Seq = 100 + 3*uint64(i) // program order, with gaps
		}
		d := AnalyzeDeadness(log)
		res := make([]pipeline.Residency, len(log), len(log)+3)
		for j, i := range r.Perm(len(log)) {
			res[j].Inst = log[i]
		}
		res = append(res,
			pipeline.Residency{Inst: isa.Inst{Seq: 101, Class: isa.ClassALU}},
			pipeline.Residency{Inst: isa.Inst{Seq: 100 + 3*uint64(len(log)), Class: isa.ClassALU}},
			pipeline.Residency{Inst: isa.Inst{Seq: 100, Class: isa.ClassALU, WrongPath: true}})
		pos := pipeline.LogPositions(res, log)
		for j := range res {
			in := &res[j].Inst
			want := CatACE
			if in.WrongPath {
				want = CatWrongPath
			} else if in.Seq >= 100 && (in.Seq-100)%3 == 0 && int(in.Seq-100)/3 < len(log) {
				want = d.OfPos(int(in.Seq-100) / 3)
			}
			if got := d.ofResidency(in, pos[j]); got != want {
				t.Fatalf("%d-instruction log, seq %d (wrong path %v): %v, want %v",
					len(log), in.Seq, in.WrongPath, got, want)
			}
		}
	}
}

func TestCountsAndDeadFraction(t *testing.T) {
	b := &logBuilder{}
	b.alu(isa.IntReg(5), isa.IntReg(1), isa.RegNone) // fdd (overwritten below)
	b.alu(isa.IntReg(5), isa.IntReg(2), isa.RegNone) // live-out
	b.nop()
	d := AnalyzeDeadness(b.log)
	if d.Committed() != 3 {
		t.Fatalf("Committed = %d, want 3", d.Committed())
	}
	if d.Counts[CatFDDReg] != 1 || d.Counts[CatACE] != 1 || d.Counts[CatNeutral] != 1 {
		t.Fatalf("Counts = %v", d.Counts)
	}
	if got := d.DeadFraction(); got != 1.0/3 {
		t.Fatalf("DeadFraction = %v, want 1/3", got)
	}
	empty := AnalyzeDeadness(nil)
	if empty.DeadFraction() != 0 {
		t.Error("empty deadness should report 0 dead fraction")
	}
}

func TestFDDDistances(t *testing.T) {
	b := &logBuilder{}
	b.alu(isa.IntReg(5), isa.IntReg(1), isa.RegNone) // idx 0
	b.nop()                                          // idx 1
	b.nop()                                          // idx 2
	b.alu(isa.IntReg(5), isa.IntReg(2), isa.RegNone) // idx 3: overwrite at distance 3
	d := AnalyzeDeadness(b.log)
	if len(d.FDDRegDist) != 1 || d.FDDRegDist[0] != 3 {
		t.Fatalf("FDDRegDist = %v, want [3]", d.FDDRegDist)
	}
}

func TestPETCoverage(t *testing.T) {
	dists := []int{1, 10, 100, 1000}
	cases := []struct {
		entries int
		want    float64
	}{
		{0, 0}, {1, 0.25}, {10, 0.5}, {100, 0.75}, {1000, 1}, {5000, 1},
	}
	for _, c := range cases {
		if got := PETCoverage(dists, c.entries); got != c.want {
			t.Errorf("PETCoverage(%d) = %v, want %v", c.entries, got, c.want)
		}
	}
	if PETCoverage(nil, 100) != 0 {
		t.Error("empty population coverage should be 0")
	}
}

func TestCategoryHelpers(t *testing.T) {
	if CatACE.UnACE() {
		t.Error("ACE must not be un-ACE")
	}
	for _, c := range []Category{CatWrongPath, CatPredFalse, CatNeutral, CatFDDReg, CatFDDRet, CatTDDReg, CatFDDMem, CatTDDMem} {
		if !c.UnACE() {
			t.Errorf("%v should be un-ACE", c)
		}
	}
	for _, c := range []Category{CatFDDReg, CatFDDRet, CatTDDReg, CatFDDMem, CatTDDMem} {
		if !c.Dead() {
			t.Errorf("%v should be dead", c)
		}
	}
	if CatWrongPath.Dead() || CatNeutral.Dead() || CatACE.Dead() {
		t.Error("non-dead category reported dead")
	}
}

func TestTrackLevels(t *testing.T) {
	want := map[Category]TrackLevel{
		CatACE:       TrackNever,
		CatWrongPath: TrackCommit,
		CatPredFalse: TrackCommit,
		CatNeutral:   TrackAntiPi,
		CatFDDReg:    TrackRegFile,
		CatFDDRet:    TrackRegFile,
		CatTDDReg:    TrackStoreBuffer,
		CatFDDMem:    TrackMemory,
		CatTDDMem:    TrackMemory,
	}
	for c, lvl := range want {
		if got := c.Track(); got != lvl {
			t.Errorf("%v.Track() = %v, want %v", c, got, lvl)
		}
	}
}

func TestCategoryStrings(t *testing.T) {
	for c := Category(0); c < NumCategories; c++ {
		if c.String() == "" {
			t.Errorf("category %d has empty name", c)
		}
	}
	if Category(99).String() == "" || TrackLevel(99).String() == "" {
		t.Error("out-of-range values should still render")
	}
	if TrackMemory.String() != "pi-memory" {
		t.Errorf("TrackMemory = %q", TrackMemory.String())
	}
}

// defUse records def-use facts for one register definition (one committed
// instruction with a destination).
type defUse struct {
	overwrite int32 // log index of the overwriting def; -1 if none by end
	retDead   bool  // a return below the def's depth happened before overwrite
	consumers []int32
}

// deadnessDefUse is the consumer-list formulation of AnalyzeDeadness, kept
// as its test oracle: every definition collects the log indices of its
// readers, and the reverse pass classifies a definition by scanning them.
// It allocates per definition, which is why the kernel replaced it, but it
// states the §4.1 rules most directly.
func deadnessDefUse(log []isa.Inst) *Deadness {
	d := &Deadness{}
	if len(log) == 0 {
		return d
	}
	defs := make([]defUse, len(log))
	cats := make([]Category, len(log))

	// regDef[r] is the log index of the live definition of register r, or
	// -1. Memory tracking is per 8-byte-aligned address.
	var regDef [isa.NumRegs]int32
	for i := range regDef {
		regDef[i] = -1
	}
	// Memory def-use, per 8-byte-aligned address: each store's consumers
	// are the loads reading its address before the next store; the next
	// store is its overwriter. The consumer/overwrite slots of defs are
	// reused (stores have no register destination).
	storeAt := make(map[uint64]int32) // addr -> pending store log index

	// lastBelow[d] is the most recent log index at which the call depth
	// was strictly below d; used to detect return-dead overwrites.
	var lastBelow [maxTrackedDepth + 2]int32
	for i := range lastBelow {
		lastBelow[i] = -1
	}
	prevDepth := int(log[0].CallDepth)

	use := func(r isa.Reg, consumer int32) {
		if r == isa.RegNone {
			return
		}
		if di := regDef[r]; di >= 0 {
			defs[di].consumers = append(defs[di].consumers, consumer)
		}
	}

	for i := range log {
		in := &log[i]
		idx := int32(i)

		// Maintain return timestamps.
		depth := int(in.CallDepth)
		if depth > maxTrackedDepth {
			depth = maxTrackedDepth
		}
		if depth < prevDepth {
			for dd := depth + 1; dd <= prevDepth && dd < len(lastBelow); dd++ {
				lastBelow[dd] = idx
			}
		}
		prevDepth = depth

		// Uses. Predicated-false instructions read only their guard;
		// neutral instructions read nothing that matters.
		if !in.Class.Neutral() {
			use(in.PredGuard, idx)
			if !in.PredFalse {
				use(in.Src1, idx)
				use(in.Src2, idx)
			}
		}

		// Memory effects.
		switch {
		case in.Class == isa.ClassLoad && !in.PredFalse:
			if si, ok := storeAt[in.Addr]; ok {
				defs[si].consumers = append(defs[si].consumers, idx)
			}
		case in.Class == isa.ClassStore && !in.PredFalse:
			if prev, ok := storeAt[in.Addr]; ok {
				defs[prev].overwrite = idx
			}
			storeAt[in.Addr] = idx
			defs[i].overwrite = -1
		}

		// Defs: close the previous definition of Dest.
		if in.HasDest() {
			r := in.Dest
			if prev := regDef[r]; prev >= 0 {
				defs[prev].overwrite = idx
				defDepth := int(log[prev].CallDepth)
				if defDepth > maxTrackedDepth {
					defDepth = maxTrackedDepth
				}
				defs[prev].retDead = lastBelow[defDepth] > prev
			}
			regDef[r] = idx
			defs[i].overwrite = -1
		}
	}

	// Reverse pass: consumers are later in the log, so their categories
	// are known when the producer is classified.
	for i := len(log) - 1; i >= 0; i-- {
		in := &log[i]
		cats[i] = classifyDefUse(in, i, defs, cats)
	}

	d.cats = cats
	for i, c := range cats {
		d.Counts[c]++
		switch c {
		case CatFDDReg:
			d.FDDRegDist = append(d.FDDRegDist, int(defs[i].overwrite)-i)
		case CatFDDRet:
			d.FDDRetDist = append(d.FDDRetDist, int(defs[i].overwrite)-i)
		case CatFDDMem:
			d.FDDMemDist = append(d.FDDMemDist, int(defs[i].overwrite)-i)
		}
	}
	return d
}

// classifyDefUse assigns the category for one committed instruction given the
// (already classified) categories of every later instruction.
func classifyDefUse(in *isa.Inst, i int, defs []defUse, cats []Category) Category {
	switch {
	case in.WrongPath:
		return CatWrongPath
	case in.PredFalse:
		return CatPredFalse
	case in.Class.Neutral():
		return CatNeutral
	case in.Class == isa.ClassStore:
		def := &defs[i]
		if def.overwrite < 0 {
			return CatACE // never overwritten: conservatively live
		}
		if len(def.consumers) == 0 {
			return CatFDDMem // overwritten before any load
		}
		for _, ci := range def.consumers {
			if !cats[ci].Dead() {
				return CatACE // a live load consumed the value
			}
		}
		return CatTDDMem // read only by dead loads
	case in.HasDest():
		def := &defs[i]
		if def.overwrite < 0 {
			return CatACE // live-out: conservatively live
		}
		if len(def.consumers) == 0 {
			if def.retDead {
				return CatFDDRet
			}
			return CatFDDReg
		}
		memTracked := false
		for _, ci := range def.consumers {
			cc := cats[ci]
			if !cc.Dead() {
				return CatACE // at least one live reader
			}
			if cc == CatFDDMem || cc == CatTDDMem {
				memTracked = true
			}
		}
		if memTracked {
			return CatTDDMem
		}
		return CatTDDReg
	default:
		// Branches, calls, returns, I/O, destination-less instructions.
		return CatACE
	}
}

// decodeDeadnessLog turns fuzz bytes into a commit log and a commit bitmap
// over it, five bytes per instruction. The decoding keeps every operand in
// a handful of registers and addresses so that definitions, reads and
// overwrites collide often, and it reaches every corner the kernel must
// agree with the oracle on: loads and stores to shared addresses,
// predicated-false, neutral and wrong-path instructions, Src == Dest,
// destinations on any class, and call depths past maxTrackedDepth.
func decodeDeadnessLog(data []byte) ([]isa.Inst, []uint64) {
	regs := [...]isa.Reg{isa.RegNone, isa.IntReg(1), isa.IntReg(2), isa.IntReg(3),
		isa.FPReg(1), isa.FPReg(2), isa.PredReg(1), isa.PredReg(2)}
	n := len(data) / 5
	log := make([]isa.Inst, n)
	mask := make([]uint64, (n+63)/64)
	depth := 62
	for i := range log {
		b := data[5*i : 5*i+5]
		in := &log[i]
		in.Seq = uint64(i)
		in.Class = isa.Class(b[0] % 11) // any of the 11 classes
		in.PredFalse = b[1]&0x07 == 0
		in.WrongPath = b[1]&0x38 == 0
		in.PredGuard = regs[b[1]>>6]
		in.Dest = regs[b[2]&7]
		in.Src1 = regs[b[2]>>3&7]
		in.Src2 = regs[b[3]&7]
		if b[3]&0x08 != 0 {
			in.Src1 = in.Dest
		}
		in.Addr = 8 * uint64(b[3]>>4&3)
		switch b[4] & 0x0f {
		case 0, 1, 2:
			depth--
		case 3, 4, 5:
			depth++
		case 6:
			depth = 60 + int(b[4]>>4)*13
		}
		depth = max(0, min(depth, 255))
		in.CallDepth = uint8(depth)
		if b[4]&0x30 != 0x30 {
			mask[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return log, mask
}

// checkKernelMatchesDefUse compares the kernel with the oracle twice: over
// the whole log, and under the commit bitmap against the oracle on the
// compacted sub-log.
func checkKernelMatchesDefUse(t *testing.T, s *deadScratch, log []isa.Inst, mask []uint64) {
	t.Helper()
	if got, want := s.analyze(log, nil), deadnessDefUse(log); !reflect.DeepEqual(got, want) {
		t.Fatalf("kernel differs from the def-use oracle on a %d-instruction log:\n got %+v\nwant %+v", len(log), got, want)
	}
	var sub []isa.Inst
	for i := range log {
		if committedAt(mask, i) {
			sub = append(sub, log[i])
		}
	}
	got, want := s.analyze(log, mask), deadnessDefUse(sub)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("masked kernel differs from the oracle on the %d-of-%d sub-log:\n got %+v\nwant %+v", len(sub), len(log), got, want)
	}
	// The position-indexed categories agree with the compacted ones.
	j := 0
	for i := range log {
		if committedAt(mask, i) {
			if s.cat[i] != want.cats[j] {
				t.Fatalf("position %d: category %v, want %v", i, s.cat[i], want.cats[j])
			}
			j++
		}
	}
}

// TestDeadnessMatchesDefUse is the randomised differential between the
// two-pass kernel and the consumer-list oracle, with one scratch reused
// across every log so stale state would show.
func TestDeadnessMatchesDefUse(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var s deadScratch
	for iter := 0; iter < 3000; iter++ {
		data := make([]byte, 5*r.Intn(200))
		r.Read(data)
		log, mask := decodeDeadnessLog(data)
		switch iter % 4 {
		case 1:
			clear(mask) // nothing committed
		case 2:
			for i := range mask {
				mask[i] = ^uint64(0) // dense
			}
		}
		checkKernelMatchesDefUse(t, &s, log, mask)
	}
}

// FuzzDeadnessMatchesDefUse lets the fuzzer drive the same differential.
func FuzzDeadnessMatchesDefUse(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x07\x09\x10\x00\x03\x07\x01\x00\x01\x00\x07\x09\x00\x03"))
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 4; i++ {
		data := make([]byte, 5*64)
		r.Read(data)
		f.Add(data)
	}
	var s deadScratch
	f.Fuzz(func(t *testing.T, data []byte) {
		log, mask := decodeDeadnessLog(data)
		checkKernelMatchesDefUse(t, &s, log, mask)
	})
}
