package workload

import (
	"softerror/internal/bpred"
	"softerror/internal/isa"
	"softerror/internal/rng"
)

// Register-range plan. The generator partitions the architectural integer
// file so that value lifetimes are controllable:
//
//	r1  .. r31  global result pool (long-lived, frequently read)
//	r32 .. r63  stacked procedure locals, 8 per call-depth band
//	r64 .. r71  TDD pool: values read only by designated dead consumers
//	r72 .. r127 scratch pool: FDD destinations, never read; picks are
//	            random so that overwrite distances spread over a wide
//	            range, giving the PET buffer a partial-coverage curve
//	            (Figure 3) rather than a step
//
// The FP file is split analogously. Deadness is *emergent*: the generator
// merely arranges def-use patterns; the ACE analyser rediscovers dead code
// from the committed stream exactly as the paper's methodology does.
const (
	globalLo, globalHi   = 1, 31
	stackedLo            = 32
	stackedBandSize      = 8
	stackedBands         = 4 // call depths 0..3 wrap around
	tddLo, tddHi         = 64, 71
	scratchLo, scratchHi = 72, 127

	fpGlobalLo, fpGlobalHi = 1, 63

	maxCallDepth = 32
)

// Stats records what the generator emitted, for calibration tests and
// reports. Counts are of correct-path instructions only.
type Stats struct {
	Total      uint64
	ByClass    [16]uint64
	Predicated uint64
	PredFalse  uint64
	Calls      uint64
	Returns    uint64
	// Intent counters: instructions the generator *constructed* to be dead.
	// The ACE analysis independently rediscovers deadness; tests compare.
	IntentFDDReg uint64
	IntentTDDReg uint64
	IntentFDDMem uint64
	IntentTDDMem uint64
	IntentLocal  uint64 // procedure-local writes eligible to die at return
	WrongPath    uint64 // wrong-path instructions handed to the pipeline
}

// Generator synthesises the dynamic instruction stream. It is forward-only:
// squash/refetch replay is the pipeline's responsibility. Correct-path and
// wrong-path instructions share one sequence-number space so that fetch
// order is total.
type Generator struct {
	p Params

	mix    *rng.Stream
	branch *rng.Stream
	pred   *rng.Stream
	addrs  *rng.Stream
	wrong  *rng.Stream

	addr addrStream
	bp   bpred.Model

	// bodyMix picks emitBody's instruction kind. The success probabilities
	// of the geometric draws and of a block-ending call depend only on the
	// parameters, so they are computed once.
	bodyMix                               rng.Picker
	blockP, calleeP, bubbleP, depP, callP float64

	seq uint64
	pc  uint64

	// Basic-block state.
	blockLeft     int
	pendingBubble uint8

	// Procedure state.
	depth     int
	frames    []frame
	calleeLen []int // remaining instructions per active frame

	// Pending multi-instruction idioms (TDD chains, call/return pairs).
	pending []isa.Inst

	// Register pools.
	intWrite  rrCounter // global int results
	fpWrite   rrCounter
	tddWrite  rrCounter
	predWrite rrCounter

	recentInt  recentRing
	recentFP   recentRing
	recentPred recentRing

	// loadMature delays load results from entering the source pool,
	// modelling compiler load hoisting (Params.LoadUseDistance).
	loadMature []maturing

	stats Stats
}

// maturing is a load result that becomes a legal source at a future
// instruction count.
type maturing struct {
	reg isa.Reg
	at  uint64
}

type frame struct {
	band     int       // stacked band index
	written  []isa.Reg // locals written in this invocation
	readable []isa.Reg // locals that may be used as sources
	nextSlot int
}

// rrCounter allocates registers round-robin from [lo, hi].
type rrCounter struct {
	lo, hi, next int
}

func (c *rrCounter) take() int {
	if c.next < c.lo || c.next > c.hi {
		c.next = c.lo
	}
	v := c.next
	c.next++
	if c.next > c.hi {
		c.next = c.lo
	}
	return v
}

// recentRing remembers recently written registers for source selection,
// biasing picks toward recent writes to create realistic dependence
// distances.
type recentRing struct {
	buf  []isa.Reg
	head int
	size int
}

func newRecentRing(capacity int) recentRing {
	return recentRing{buf: make([]isa.Reg, capacity)}
}

func (r *recentRing) push(reg isa.Reg) {
	r.buf[r.head] = reg
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	if r.size < len(r.buf) {
		r.size++
	}
}

// pick returns a recently written register, geometrically biased toward the
// most recent: the look-back is a Geometric(p) draw, wrapped to the ring's
// size. Returns RegNone if empty.
func (r *recentRing) pick(s *rng.Stream, p float64) isa.Reg {
	if r.size == 0 {
		return isa.RegNone
	}
	back := s.Geometric(p)
	if back >= r.size { // rare: look-backs are short next to the ring
		back %= r.size
	}
	idx := r.head - 1 - back
	if idx < 0 {
		idx += len(r.buf)
	}
	return r.buf[idx]
}

// New constructs a Generator. Params must validate.
func New(p Params) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(p.Seed, 0x5e7e)
	g := &Generator{
		p:      p,
		mix:    root.Derive("mix"),
		branch: root.Derive("branch"),
		pred:   root.Derive("pred"),
		addrs:  root.Derive("addr"),
		wrong:  root.Derive("wrong"),

		intWrite:  rrCounter{lo: globalLo, hi: globalHi},
		fpWrite:   rrCounter{lo: fpGlobalLo, hi: fpGlobalHi},
		tddWrite:  rrCounter{lo: tddLo, hi: tddHi},
		predWrite: rrCounter{lo: 1, hi: isa.NumPredRegs - 1},

		recentInt:  newRecentRing(32),
		recentFP:   newRecentRing(32),
		recentPred: newRecentRing(8),

		pc: 0x4000_0000,
	}
	g.addr = newAddrStream(&p, g.addrs)
	g.bodyMix = rng.NewPicker([]float64{
		p.LoadFrac,          // 0 load
		p.StoreFrac,         // 1 store
		p.FPFrac,            // 2 fp
		p.NopFrac,           // 3 nop
		p.PrefetchFrac,      // 4 prefetch
		p.HintFrac,          // 5 hint
		p.FDDRegFrac,        // 6 fdd-reg
		p.TDDRegFrac,        // 7 tdd-reg chain
		p.FDDMemFrac,        // 8 dead store (+tdd-mem producer)
		p.IOFrac,            // 9 uncached I/O write
		remainderWeight(&p), // 10 live alu
	})
	g.blockP = 1.0 / float64(p.MeanBlockLen)
	g.calleeP = 1.0 / float64(p.MeanCalleeLen)
	g.bubbleP = 1.0 / float64(p.FetchBubbleMean)
	g.depP = 1.0 / float64(p.DepDistance)
	g.callP = callProb(&p)
	switch p.BranchPredictor {
	case "gshare":
		g.bp = bpred.NewGshare(14, 10)
	case "bimodal":
		g.bp = bpred.NewBimodal(14)
	default:
		g.bp = bpred.NewStatistical(p.MispredictRate, root.Derive("bp"))
	}
	g.blockLeft = g.blockLen()
	// Prime the value pools so early instructions have sources.
	for i := 0; i < 8; i++ {
		g.recentInt.push(isa.IntReg(globalLo + i))
		g.recentFP.push(isa.FPReg(fpGlobalLo + i))
	}
	return g, nil
}

// MustNew is New for callers with statically valid Params (tests, examples).
func MustNew(p Params) *Generator {
	g, err := New(p)
	if err != nil {
		panic(err)
	}
	return g
}

// Stats returns a snapshot of the generator's emission statistics.
func (g *Generator) Stats() Stats { return g.stats }

func (g *Generator) blockLen() int {
	return 1 + g.branch.Geometric(g.blockP)
}

func (g *Generator) nextSeq() uint64 {
	s := g.seq
	g.seq++
	return s
}

func (g *Generator) nextPC() uint64 {
	pc := g.pc
	g.pc += 4
	return pc
}

// Next returns the next correct-path instruction. The stream is infinite.
func (g *Generator) Next() isa.Inst {
	var in isa.Inst
	g.nextInto(&in)
	return in
}

// nextInto generates the next correct-path instruction into *in,
// overwriting every field: Shared hands it memo slots that may hold a
// recycled stream's instructions.
func (g *Generator) nextInto(in *isa.Inst) {
	if len(g.pending) > 0 {
		*in = g.pending[0]
		g.pending = g.pending[1:]
		in.Seq = g.nextSeq()
		in.PC = g.nextPC()
	} else {
		g.synthesise(in)
	}
	in.CallDepth = uint8(g.depth)
	if g.pendingBubble > 0 {
		in.FetchBubble = g.pendingBubble
		g.pendingBubble = 0
	}
	g.stats.Total++
	g.stats.ByClass[in.Class]++
	for len(g.loadMature) > 0 && g.loadMature[0].at <= g.stats.Total {
		g.recentInt.push(g.loadMature[0].reg)
		g.loadMature = g.loadMature[1:]
	}
	if in.PredGuard != isa.RegNone {
		g.stats.Predicated++
		if in.PredFalse {
			g.stats.PredFalse++
		}
	}
}

// synthesise draws one new instruction into *in (or schedules an idiom and
// writes its first instruction).
func (g *Generator) synthesise(in *isa.Inst) {
	// Procedure bookkeeping: retire the innermost frame when exhausted.
	if g.depth > 0 {
		top := len(g.calleeLen) - 1
		if g.calleeLen[top] <= 0 {
			g.emitReturn(in)
			return
		}
		g.calleeLen[top]--
	}

	// End of basic block: emit a control-flow instruction.
	if g.blockLeft <= 0 {
		g.blockLeft = g.blockLen()
		if g.depth < maxCallDepth && g.mix.Bool(g.callP) {
			g.emitCall(in)
		} else {
			g.emitBranch(in)
		}
		return
	}
	g.blockLeft--

	g.emitBody(in)
}

// callProb converts CallFrac (per-instruction) into a per-block-end
// probability so the dynamic call fraction lands near CallFrac.
func callProb(p *Params) float64 {
	perBlock := p.CallFrac * float64(p.MeanBlockLen+1)
	if perBlock > 1 {
		return 1
	}
	return perBlock
}

func (g *Generator) emitBody(in *isa.Inst) {
	switch g.bodyMix.Pick(g.mix) {
	case 0:
		g.emitLoad(in)
	case 1:
		g.emitStore(in)
	case 2:
		g.emitFP(in)
	case 3:
		g.plain(in, isa.ClassNop)
	case 4:
		g.emitPrefetch(in)
	case 5:
		g.plain(in, isa.ClassHint)
	case 6:
		g.emitFDDReg(in)
	case 7:
		g.emitTDDChain(in)
	case 8:
		g.emitDeadStore(in)
	case 9:
		g.emitIO(in)
	default:
		g.emitALU(in)
	}
}

// emitIO writes a live value to an uncached device address: the program's
// observable output, and the signalling endpoint for fully-deferred π
// tracking.
func (g *Generator) emitIO(in *isa.Inst) {
	*in = isa.Inst{
		Seq: g.nextSeq(), PC: g.nextPC(), Class: isa.ClassIO,
		Dest: isa.RegNone, Src1: g.srcReg(), Src2: isa.RegNone,
		PredGuard: isa.RegNone, Addr: ioBase + uint64(g.mix.Intn(ioSize))&^7,
		MemSize: 8,
	}
}

func remainderWeight(p *Params) float64 {
	used := p.LoadFrac + p.StoreFrac + p.FPFrac + p.IOFrac + p.NopFrac +
		p.PrefetchFrac + p.HintFrac + p.FDDRegFrac + p.TDDRegFrac + p.FDDMemFrac
	rem := 1 - used
	if rem < 0 {
		return 0
	}
	return rem
}

// plain emits a bare instruction of class c with no operands.
func (g *Generator) plain(in *isa.Inst, c isa.Class) {
	*in = isa.Inst{
		Seq: g.nextSeq(), PC: g.nextPC(), Class: c,
		Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone,
		PredGuard: isa.RegNone,
	}
}

// destReg allocates a destination register for a live value and records it
// as readable. Inside a procedure, a share of writes target frame locals.
func (g *Generator) destReg() isa.Reg {
	if g.depth > 0 && g.mix.Bool(0.5) {
		return g.localDest()
	}
	r := isa.IntReg(g.intWrite.take())
	g.recentInt.push(r)
	return r
}

// localDest writes a procedure-local register; with probability
// DeadLocalFrac the local is never offered as a source, so it dies when a
// later invocation of the same band overwrites it (dead via return).
func (g *Generator) localDest() isa.Reg {
	f := &g.frames[len(g.frames)-1]
	slot := stackedLo + f.band*stackedBandSize + f.nextSlot%stackedBandSize
	f.nextSlot++
	r := isa.IntReg(slot)
	f.written = append(f.written, r)
	g.stats.IntentLocal++
	if !g.mix.Bool(g.p.DeadLocalFrac) {
		f.readable = append(f.readable, r)
		g.recentInt.push(r)
	}
	return r
}

// srcReg picks a source register for integer data.
func (g *Generator) srcReg() isa.Reg {
	// Prefer current-frame locals occasionally to keep them live.
	if g.depth > 0 {
		f := &g.frames[len(g.frames)-1]
		if len(f.readable) > 0 && g.mix.Bool(0.3) {
			return f.readable[g.mix.Intn(len(f.readable))]
		}
	}
	if r := g.recentInt.pick(g.mix, g.depP); r != isa.RegNone {
		return r
	}
	return isa.IntReg(globalLo)
}

func (g *Generator) srcFP() isa.Reg {
	if r := g.recentFP.pick(g.mix, g.depP); r != isa.RegNone {
		return r
	}
	return isa.FPReg(fpGlobalLo)
}

// guard optionally predicates the instruction, resolving the predicate
// dynamically.
func (g *Generator) guard(in *isa.Inst) {
	if !g.pred.Bool(g.p.PredicatedFrac) {
		return
	}
	pg := g.recentPred.pick(g.pred, 0.5) // mean look-back 2
	if pg == isa.RegNone {
		return
	}
	in.PredGuard = pg
	in.PredFalse = g.pred.Bool(g.p.PredFalseProb)
}

func (g *Generator) emitALU(in *isa.Inst) {
	*in = isa.Inst{
		Seq: g.nextSeq(), PC: g.nextPC(), Class: isa.ClassALU,
		Src1: g.srcReg(), Src2: g.srcReg(), PredGuard: isa.RegNone,
	}
	// A slice of ALU work is compares producing predicates.
	if g.mix.Bool(0.18) {
		pr := isa.PredReg(g.predWrite.take())
		in.Dest = pr
		g.recentPred.push(pr)
	} else {
		in.Dest = g.destReg()
	}
	g.guard(in)
}

func (g *Generator) emitFP(in *isa.Inst) {
	*in = isa.Inst{
		Seq: g.nextSeq(), PC: g.nextPC(), Class: isa.ClassFPU,
		Src1: g.srcFP(), Src2: g.srcFP(), PredGuard: isa.RegNone,
	}
	r := isa.FPReg(g.fpWrite.take())
	in.Dest = r
	g.recentFP.push(r)
	g.guard(in)
}

func (g *Generator) emitLoad(in *isa.Inst) {
	*in = isa.Inst{
		Seq: g.nextSeq(), PC: g.nextPC(), Class: isa.ClassLoad,
		Src1: g.srcReg(), Src2: isa.RegNone, PredGuard: isa.RegNone,
		Addr: g.addr.data(), MemSize: 8,
	}
	if g.p.LoadUseDistance > 0 {
		// Hoisted load: the result joins the source pool only after the
		// scheduled load-use distance, so short misses are hidden.
		r := isa.IntReg(g.intWrite.take())
		in.Dest = r
		g.loadMature = append(g.loadMature, maturing{
			reg: r,
			at:  g.stats.Total + uint64(g.p.LoadUseDistance),
		})
	} else {
		in.Dest = g.destReg()
	}
	g.guard(in)
}

func (g *Generator) emitStore(in *isa.Inst) {
	*in = isa.Inst{
		Seq: g.nextSeq(), PC: g.nextPC(), Class: isa.ClassStore,
		Dest: isa.RegNone, Src1: g.srcReg(), Src2: g.srcReg(),
		PredGuard: isa.RegNone, Addr: g.addr.data(), MemSize: 8,
	}
	g.guard(in)
}

func (g *Generator) emitPrefetch(in *isa.Inst) {
	*in = isa.Inst{
		Seq: g.nextSeq(), PC: g.nextPC(), Class: isa.ClassPrefetch,
		Dest: isa.RegNone, Src1: g.srcReg(), Src2: isa.RegNone,
		PredGuard: isa.RegNone, Addr: g.addr.data(), MemSize: 64,
	}
}

// emitFDDReg writes a scratch register that no instruction ever reads; it
// becomes first-level dynamically dead when the scratch slot is recycled.
func (g *Generator) emitFDDReg(in *isa.Inst) {
	g.stats.IntentFDDReg++
	*in = isa.Inst{
		Seq: g.nextSeq(), PC: g.nextPC(), Class: isa.ClassALU,
		Dest: g.scratchReg(),
		Src1: g.srcReg(), Src2: g.srcReg(), PredGuard: isa.RegNone,
	}
}

// scratchReg picks a random never-read register. Picks are two-tier —
// a small hot subset recycles quickly, the large cold remainder slowly —
// so FDD def-to-overwrite distances spread from tens to thousands of
// commits, giving the PET buffer the partial-coverage curve of Figure 3.
func (g *Generator) scratchReg() isa.Reg {
	const hotRegs = 6
	if g.mix.Bool(0.3) {
		return isa.IntReg(scratchLo + g.mix.Intn(hotRegs))
	}
	return isa.IntReg(scratchLo + hotRegs + g.mix.Intn(scratchHi-scratchLo+1-hotRegs))
}

// emitTDDChain produces a value in the TDD pool and schedules a consumer
// that is itself first-level dead, making the producer transitively dead.
// Occasionally the chain is two deep.
func (g *Generator) emitTDDChain(in *isa.Inst) {
	tddReg := isa.IntReg(g.tddWrite.take())
	*in = isa.Inst{
		Seq: g.nextSeq(), PC: g.nextPC(), Class: isa.ClassALU,
		Dest: tddReg, Src1: g.srcReg(), Src2: g.srcReg(),
		PredGuard: isa.RegNone,
	}
	g.stats.IntentTDDReg++
	if g.mix.Bool(0.25) {
		// Two-level chain: producer -> mid (TDD) -> terminal (FDD).
		mid := isa.IntReg(g.tddWrite.take())
		g.pending = append(g.pending,
			isa.Inst{Class: isa.ClassALU, Dest: mid, Src1: tddReg,
				Src2: isa.RegNone, PredGuard: isa.RegNone},
			isa.Inst{Class: isa.ClassALU,
				Dest: g.scratchReg(),
				Src1: mid, Src2: isa.RegNone, PredGuard: isa.RegNone},
		)
		g.stats.IntentTDDReg++
		g.stats.IntentFDDReg++
	} else {
		g.pending = append(g.pending,
			isa.Inst{Class: isa.ClassALU,
				Dest: g.scratchReg(),
				Src1: tddReg, Src2: isa.RegNone, PredGuard: isa.RegNone},
		)
		g.stats.IntentFDDReg++
	}
}

// emitDeadStore stores to a write-only address ring: the value is
// overwritten before any load, making the store FDD-via-memory and its
// value producer TDD-via-memory.
func (g *Generator) emitDeadStore(in *isa.Inst) {
	valueReg := isa.IntReg(g.tddWrite.take())
	*in = isa.Inst{
		Seq: g.nextSeq(), PC: g.nextPC(), Class: isa.ClassALU,
		Dest: valueReg, Src1: g.srcReg(), Src2: isa.RegNone,
		PredGuard: isa.RegNone,
	}
	g.stats.IntentTDDMem++
	g.stats.IntentFDDMem++
	g.pending = append(g.pending, isa.Inst{
		Class: isa.ClassStore, Dest: isa.RegNone,
		Src1: valueReg, Src2: isa.RegNone, PredGuard: isa.RegNone,
		Addr: g.addr.deadStore(), MemSize: 8,
	})
}

// rollBubble schedules a front-end delivery gap ahead of the next block
// with probability FetchBubbleProb.
func (g *Generator) rollBubble() {
	if g.p.FetchBubbleProb <= 0 || !g.branch.Bool(g.p.FetchBubbleProb) {
		return
	}
	n := 1 + g.branch.Geometric(g.bubbleP)
	if n > 255 {
		n = 255
	}
	g.pendingBubble = uint8(n)
}

func (g *Generator) emitBranch(in *isa.Inst) {
	g.rollBubble()
	taken := g.branch.Bool(g.p.TakenProb)
	*in = isa.Inst{
		Seq: g.nextSeq(), PC: g.nextPC(), Class: isa.ClassBranch,
		Dest: isa.RegNone, Src2: isa.RegNone,
		PredGuard: isa.RegNone, Taken: taken,
	}
	// Branches consume a predicate when one is live, else an int reg.
	if p := g.recentPred.pick(g.branch, 0.5); p != isa.RegNone {
		in.Src1 = p
	} else {
		in.Src1 = g.srcReg()
	}
	in.Mispred = g.bp.Mispredict(in.PC, taken)
	if taken {
		g.pc += uint64(4 * (1 + g.branch.Intn(64)))
	}
}

func (g *Generator) emitCall(in *isa.Inst) {
	g.rollBubble()
	g.stats.Calls++
	*in = isa.Inst{
		Seq: g.nextSeq(), PC: g.nextPC(), Class: isa.ClassCall,
		Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone,
		PredGuard: isa.RegNone, Taken: true,
	}
	in.Mispred = g.branch.Bool(g.p.MispredictRate * 0.3)
	g.depth++
	g.frames = append(g.frames, frame{band: (g.depth - 1) % stackedBands})
	bodyLen := 1 + g.branch.Geometric(g.calleeP)
	g.calleeLen = append(g.calleeLen, bodyLen)
}

func (g *Generator) emitReturn(in *isa.Inst) {
	g.rollBubble()
	g.stats.Returns++
	*in = isa.Inst{
		Seq: g.nextSeq(), PC: g.nextPC(), Class: isa.ClassReturn,
		Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone,
		PredGuard: isa.RegNone, Taken: true,
	}
	in.Mispred = g.branch.Bool(g.p.MispredictRate * 0.3)
	g.depth--
	g.frames = g.frames[:len(g.frames)-1]
	g.calleeLen = g.calleeLen[:len(g.calleeLen)-1]
}

// NextWrong returns a wrong-path instruction: plausible in shape but with
// speculative register and address operands. The paper fetches
// mis-speculated instructions without correct memory addresses; we do the
// same. Wrong-path instructions never commit.
func (g *Generator) NextWrong() isa.Inst {
	g.stats.WrongPath++
	var in isa.Inst
	wrongInto(g.wrong, &in)
	in.Seq = g.nextSeq()
	in.PC = g.nextPC()
	in.CallDepth = uint8(g.depth)
	return in
}

// wrongMix picks a wrong-path instruction's kind: ALU, load, FP, nop or
// branch.
var wrongMix = rng.NewPicker([]float64{0.5, 0.15, 0.1, 0.2, 0.05})

// wrongInto synthesises the content of one wrong-path instruction from the
// wrong-path stream alone into *in, overwriting every field; Seq, PC and
// CallDepth are the caller's to assign. Keeping the draw a pure function
// of the stream is what lets the batch evaluator memoise the wrong-path
// sequence once and replay prefixes of it into any number of machine
// configurations.
func wrongInto(s *rng.Stream, in *isa.Inst) {
	*in = isa.Inst{
		Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone,
		PredGuard: isa.RegNone, WrongPath: true,
	}
	switch wrongMix.Pick(s) {
	case 0:
		in.Class = isa.ClassALU
		in.Dest = isa.IntReg(globalLo + s.Intn(globalHi-globalLo+1))
		in.Src1 = isa.IntReg(globalLo + s.Intn(globalHi-globalLo+1))
		in.Src2 = isa.IntReg(globalLo + s.Intn(globalHi-globalLo+1))
	case 1:
		in.Class = isa.ClassLoad
		in.Dest = isa.IntReg(globalLo + s.Intn(globalHi-globalLo+1))
		in.Src1 = isa.IntReg(globalLo + s.Intn(globalHi-globalLo+1))
		in.Addr = align(wrongBase + uint64(s.Intn(wrongSize)))
		in.MemSize = 8
	case 2:
		in.Class = isa.ClassFPU
		in.Dest = isa.FPReg(fpGlobalLo + s.Intn(fpGlobalHi-fpGlobalLo+1))
		in.Src1 = isa.FPReg(fpGlobalLo + s.Intn(fpGlobalHi-fpGlobalLo+1))
	case 3:
		in.Class = isa.ClassNop
	default:
		in.Class = isa.ClassBranch
		in.Src1 = isa.IntReg(globalLo + s.Intn(globalHi-globalLo+1))
	}
}
