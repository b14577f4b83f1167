// Package static bounds per-structure AVF analytically — from the decoded
// program and a pipeline configuration, never from simulation.
//
// The analyzer walks a committed-instruction prefix of a workload body (the
// same single-decode memo `workload.Shared` feeds the simulator) and
// computes, for every vulnerable structure the simulator reports on,
// an upper bound on its AVF under any execution of that program on the
// given pipeline.Config. Three facts make the bounds sound without a cycle
// model:
//
//  1. Truncated deadness dominates. ace.AnalyzeDeadness over a prefix of
//     the commit log classifies every unresolved value as ACE, so the
//     category a prefix assigns an instruction is always at least as ACE
//     as the category any longer log assigns it. The analyzer may
//     therefore run the simulator's own deadness pass over a conservative
//     prefix and treat the result as a per-instruction ACE-bit ceiling.
//
//  2. Queue residents are a contiguous fetch-stream segment. The IQ and
//     the front-end buffer insert in fetch order and evict from the head
//     only (even out of order: an unissued head blocks eviction), so the
//     committed instructions co-resident in a structure of E entries at
//     any cycle occupy a contiguous window of at most E body positions.
//     The per-cycle ACE charge is then at most the maximum window sum of
//     per-instruction ACE weights, and AVF <= maxWindow / (E * bits).
//
//  3. Occupancy is drain-bounded. A store-buffer entry drains
//     unconditionally within StoreBufferSize + StoreDrainLatency cycles
//     of entering, and a run of N commits lasts at least
//     ceil(N / min(IssueWidth, FetchWidth)) cycles, which bounds the
//     buffer's integrated occupancy.
//
// The front-end bound additionally has to absorb the run-end tail: the
// collector charges a delivered-but-never-committed instruction as fully
// ACE, so positions past the deadness cut are weighted at the full entry
// width. False-DUE bounds need the opposite direction of fact 1 — an
// instruction's un-ACE bits can only grow in a longer log — so they use a
// per-instruction worst case derived from the instruction content alone
// (a store may always turn out dead; a destination-less branch never can).
//
// Query is allocation-free once a (program, cut) pair has been analyzed.
// Pricing needs none of that: Estimate computes Query's EstCycles from the
// counters Load keeps, so a loaded Analyzer prices configurations without
// ever running the deadness pass.
package static

import (
	"fmt"

	"softerror/internal/ace"
	"softerror/internal/isa"
	"softerror/internal/pipeline"
	"softerror/internal/workload"
)

// BodySlack is how many decoded instructions past the commit target
// Analyze hands the analyzer. A run of N target commits can touch body
// positions past N: up to IssueWidth-1 overshoot commits, plus (out of
// order) one structure's worth of stalled holes whose commits land
// beyond N, plus the front end running ahead. 512 covers every
// configuration RandomPipelineConfig can draw (IW + 2*(IQSize +
// FrontEndCap) <= 488); larger hand-built configs stay sound because
// Query pads any shortfall pessimistically.
const BodySlack = 512

// StructBounds is one structure's AVF upper bounds. Each field dominates
// the matching simulated quantity: SDC >= Report.SDCAVF(), FalseDUE >=
// Report.FalseDUEAVF(), DUE >= Report.DUEAVF().
type StructBounds struct {
	SDC      float64
	FalseDUE float64
	DUE      float64
}

// Bounds is the full answer for one (program, commit target, config)
// triple.
type Bounds struct {
	// Commits is the commit target the bounds were computed for.
	Commits uint64

	IQ          StructBounds
	FrontEnd    StructBounds
	StoreBuffer StructBounds
	RegFile     StructBounds

	// ROB, LSQ and TAGE bound the out-of-order family's extra structures.
	// All zero for in-order configurations, whose runs produce no such
	// reports.
	ROB  StructBounds
	LSQ  StructBounds
	TAGE StructBounds

	// IQField bounds the instruction queue's per-field ACE bit-cycle
	// fraction: IQField[f] >= Report.FieldACEBC[f] / Report.TotalBC().
	IQField [isa.NumFields]float64

	// MinCycles is a provable lower bound on the simulated cycle count:
	// commits per cycle cannot exceed min(IssueWidth, FetchWidth).
	MinCycles uint64
	// EstCycles is a cost heuristic for pricing and ordering work — an
	// estimate, not a bound: MinCycles plus the program's fetch bubbles
	// and rough per-event stall charges.
	EstCycles uint64
}

// Analyzer computes bounds for one loaded program across many
// configurations. Load allocates; Query is allocation-free once the
// deadness view for the config's cut has been built (the first Query per
// distinct out-of-order cut builds one); Estimate builds no view and never
// allocates. Not safe for concurrent use.
type Analyzer struct {
	body    []isa.Inst
	commits int

	// Content-derived state, independent of any deadness cut.
	uMaxPre      []uint64 // prefix sums of worst-case un-ACE bits
	memPos       []int32  // body index of each load/store-queue resident
	memUPre      []uint64 // per-mem-op worst-case un-ACE LSQ bit prefix sums
	controls     uint64   // control-class instructions in the decoded body
	storePos     []int32  // body index of each store that can enter the SB
	definedBits  uint64   // bits of registers the program ever defines
	deadReadBits uint64   // bits of defined registers a dead reader may read
	bubbles      uint64   // sum of FetchBubble over the commit target
	loads        uint64
	mispreds     uint64
	stores       uint64
	hasMispred   bool

	views map[int]*cutView
}

// cutView is the deadness-dependent weight state for one prefix cut.
type cutView struct {
	acePreIQ  []uint64                // IQ ACE-bit prefix sums
	acePreFE  []uint64                // front-end ACE-bit prefix sums
	aceLSQPre []uint64                // LSQ ACE-bit prefix sums, per mem op
	fieldPre  [isa.NumFields][]uint64 // per-field ACE-bit prefix sums
	sbDead    int                     // stores proven dead to memory
}

// NewAnalyzer returns an empty analyzer; call Load before Query.
func NewAnalyzer() *Analyzer {
	return &Analyzer{views: make(map[int]*cutView)}
}

// Analyze is the one-shot convenience path: check the workload's decoded
// stream out of the process-wide store (workload.Streams), load the commit
// prefix plus slack, and query the config. A stream the simulator or an
// earlier bound already decoded is not decoded again. It fails only when
// the workload's stream cannot be decoded position-addressably (PC-indexed
// branch predictors).
func Analyze(p workload.Params, commits uint64, cfg pipeline.Config) (Bounds, error) {
	if commits > 1<<40 {
		return Bounds{}, fmt.Errorf("static: commit target %d too large to decode", commits)
	}
	n := int(commits) + BodySlack
	sh, err := workload.Streams().Checkout(p, n, 0)
	if err != nil {
		return Bounds{}, fmt.Errorf("static: %w", err)
	}
	defer workload.Streams().Release(sh)
	a := NewAnalyzer()
	a.Load(sh.BodyPrefix(n), commits)
	return a.Query(cfg), nil
}

// Load points the analyzer at a decoded committed-instruction prefix and
// a commit target. body should extend BodySlack instructions past the
// target when available (Analyze arranges this); shorter bodies stay
// sound — Query pads the unknown positions at the worst-case weight.
// The analyzer aliases body; do not mutate it while querying.
//
// The analyzer reasons about body positions: a deadness view reads each
// position's category by its index in the analysed prefix
// (ace.Deadness.OfPos), never by sequence number. Decoded bodies carry
// Seq equal to their position, so the two lookups agree on them.
func (a *Analyzer) Load(body []isa.Inst, commits uint64) {
	n := int(commits)
	if commits > 1<<40 || n < 0 {
		n = len(body) // absurd target: bound what we can see
	}
	a.body = body
	a.commits = n
	a.views = make(map[int]*cutView)

	k := len(body)
	if cap(a.uMaxPre) < k+1 {
		a.uMaxPre = make([]uint64, k+1)
	}
	a.uMaxPre = a.uMaxPre[:k+1]
	a.memPos = a.memPos[:0]
	a.memUPre = append(a.memUPre[:0], 0)
	a.controls = 0
	a.storePos = a.storePos[:0]
	a.definedBits, a.deadReadBits = 0, 0
	a.bubbles, a.loads, a.mispreds, a.stores = 0, 0, 0, 0
	a.hasMispred = false

	var defined, deadRead [isa.NumRegs]bool
	for i := 0; i < k; i++ {
		in := &body[i]
		a.uMaxPre[i+1] = a.uMaxPre[i] + worstUnACE(in)
		if in.Mispred {
			a.hasMispred = true
		}
		if in.Class.IsControl() {
			a.controls++
		}
		if in.Class == isa.ClassLoad || in.Class == isa.ClassStore {
			a.memPos = append(a.memPos, int32(i))
			a.memUPre = append(a.memUPre, a.memUPre[len(a.memUPre)-1]+worstLSQUnACE(in))
		}
		enterSB := in.Class == isa.ClassStore && !in.PredFalse && !in.WrongPath
		if enterSB {
			a.storePos = append(a.storePos, int32(i))
		}
		if i < n {
			a.bubbles += uint64(in.FetchBubble)
			switch {
			case in.Class == isa.ClassLoad && !in.PredFalse && !in.WrongPath:
				a.loads++
			case enterSB:
				a.stores++
			}
			if in.Mispred {
				a.mispreds++
			}
		}
		if in.HasDest() {
			defined[in.Dest] = true
		}
		// A register read can become a dead read only when its reader can
		// receive a dead category: destination writers and stores. Neutral
		// instructions read nothing; predicated-false readers touch only
		// the guard and are never classified dead; destination-less
		// control flow is always ACE.
		if !in.Class.Neutral() && !in.WrongPath &&
			(in.HasDest() || (in.Class == isa.ClassStore && !in.PredFalse)) {
			if in.PredGuard != isa.RegNone {
				deadRead[in.PredGuard] = true
			}
			if !in.PredFalse {
				if in.Src1 != isa.RegNone {
					deadRead[in.Src1] = true
				}
				if in.Src2 != isa.RegNone {
					deadRead[in.Src2] = true
				}
			}
		}
	}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if defined[r] {
			a.definedBits += regBits(r)
			// The simulator ignores reads of never-defined registers, so
			// only defined registers can accumulate dead-read bit-cycles.
			if deadRead[r] {
				a.deadReadBits += regBits(r)
			}
		}
	}
}

// Query bounds the config's AVF for the loaded program. The returned
// bounds are valid for any simulation of the same program at the loaded
// commit target; degenerate configs (zero or negative sizes) are clamped
// rather than rejected, loosening the bounds instead of failing.
func (a *Analyzer) Query(cfg pipeline.Config) Bounds {
	var b Bounds
	b.Commits = uint64(a.commits)
	if a.commits == 0 {
		return b
	}
	n := a.commits
	k := len(a.body)
	B := uint64(isa.EntryPayloadBits)

	iw := clampDim(cfg.IssueWidth)
	fw := clampDim(cfg.FetchWidth)
	iqSize := clampDim(cfg.IQSize)
	fed := clampDim(cfg.FrontEndDepth + 2)
	feCap := clampDim(fw * fed)
	brl := clampDim(cfg.BranchResolveLatency)
	sbSize := clampDim(cfg.StoreBufferSize)
	sdl := clampDim(cfg.StoreDrainLatency)

	// slack bounds how far past the commit target a run can touch body
	// positions, and symmetrically how close to the target an out-of-order
	// run's uncommitted holes can reach back.
	slack := iw + 2*(iqSize+feCap)
	virt := n + slack - k // worst-case pad when the body is short
	if virt < 0 {
		virt = 0
	}
	cut := n
	if cfg.OutOfOrder {
		cut = n - slack
		if cut < 0 {
			cut = 0
		}
	}
	if cut > k {
		cut = k
	}
	cv := a.view(cut)

	// Unknown instructions past the decoded body could be mispredicted
	// branches; only a fully decoded horizon can rule wrong-path fill out.
	hasMispred := a.hasMispred || virt > 0

	// Instruction queue: fact 2 windows over the ACE-weight arrays.
	iqDen := float64(uint64(iqSize) * B)
	b.IQ.SDC = clamp(float64(windowMax(cv.acePreIQ, iqSize, B, virt)) / iqDen)
	for f := isa.Field(0); f < isa.NumFields; f++ {
		fb := uint64(isa.FieldBits[f])
		w := windowMax(cv.fieldPre[f], iqSize, fb, virt)
		bound := float64(w) / iqDen
		if ceil := float64(fb) / float64(B); bound > ceil {
			bound = ceil // a field can never exceed its own width share
		}
		b.IQField[f] = bound
	}
	// False DUE: content-derived worst-case un-ACE weights for committed
	// instructions, plus wrong-path issue slots. In order, nothing behind
	// an unissued mispredicted branch issues until the branch does; the
	// redirect fires BranchResolveLatency cycles after the branch issues
	// and is processed before that cycle's issue stage, so the shadow
	// holds at most BRL issue cycles — IssueWidth*(BRL+1) keeps one cycle
	// of margin. Out of order the branch itself may stall arbitrarily (a
	// dependent load miss) while wrong-path fill issues freely, so the
	// whole queue is the only cap.
	kWP := 0
	if hasMispred {
		kWP = iqSize
		if !cfg.OutOfOrder {
			if wp := iw * (brl + 1); wp < kWP {
				kWP = wp
			}
		}
	}
	b.IQ.FalseDUE = clamp((float64(windowMax(a.uMaxPre, iqSize, B, virt)) +
		float64(uint64(kWP)*B)) / iqDen)
	b.IQ.DUE = clamp(b.IQ.SDC + b.IQ.FalseDUE)

	// Front end: same windows at the fetch buffer's capacity. Delivered
	// wrong-path chunks charge full width, but in order only one shadow is
	// live at a time and its deliveries are capped by the IQ space it can
	// drain into: the free entries at redirect plus the shadow's issue
	// slots. Out of order the shadow drains the queue indefinitely, so the
	// buffer capacity is the only cap.
	feDen := float64(uint64(feCap) * B)
	b.FrontEnd.SDC = clamp(float64(windowMax(cv.acePreFE, feCap, B, virt)) / feDen)
	kFE := 0
	if hasMispred {
		kFE = feCap
		if !cfg.OutOfOrder {
			if v := iqSize + kWP; v < kFE {
				kFE = v
			}
		}
	}
	b.FrontEnd.FalseDUE = clamp((float64(windowMax(a.uMaxPre, feCap, B, virt)) +
		float64(uint64(kFE)*B)) / feDen)
	b.FrontEnd.DUE = clamp(b.FrontEnd.SDC + b.FrontEnd.FalseDUE)

	// Store buffer: fact 3. Every entry drains within D cycles; dead
	// stores charge only their address bits.
	b.MinCycles = ceilDiv(uint64(n), uint64(min(iw, fw)))
	drain := uint64(sbSize + sdl)
	nStores := len(a.storePos) + virt // unknown tail: every slot a store
	live := nStores - cv.sbDead
	sumW := uint64(live)*ace.SBEntryBits + uint64(cv.sbDead)*ace.SBAddrBits
	sbDen := float64(b.MinCycles * uint64(sbSize) * ace.SBEntryBits)
	b.StoreBuffer.SDC = clamp(float64(drain*sumW) / sbDen)
	sbFalse := clamp(float64(drain*uint64(nStores)*ace.SBDataBits) / sbDen)
	if perCycle := float64(ace.SBDataBits) / float64(ace.SBEntryBits); sbFalse > perCycle {
		sbFalse = perCycle // at most the data share of every occupied entry
	}
	b.StoreBuffer.FalseDUE = sbFalse
	b.StoreBuffer.DUE = clamp(b.StoreBuffer.SDC + b.StoreBuffer.FalseDUE)

	// Register file: a register charges nothing until defined, so the
	// defined width is a cycle-free ceiling; dead reads additionally need
	// a reader that can be classified dead.
	defBits := a.definedBits + uint64(virt)*ace.FPRegBits
	deadBits := a.deadReadBits + uint64(virt)*ace.FPRegBits
	if defBits > regFileCapacityBits {
		defBits = regFileCapacityBits
	}
	if deadBits > regFileCapacityBits {
		deadBits = regFileCapacityBits
	}
	b.RegFile.SDC = clamp(float64(defBits) / float64(regFileCapacityBits))
	b.RegFile.FalseDUE = clamp(float64(deadBits) / float64(regFileCapacityBits))
	b.RegFile.DUE = clamp(b.RegFile.SDC + b.RegFile.FalseDUE)

	// Out-of-order family: reorder buffer, load/store queue and predictor
	// tables. All zero for the in-order family, whose runs produce no such
	// reports.
	if cfg.OutOfOrder {
		nrm := cfg.Normalized()
		robSize := clampDim(nrm.ROBSize)
		lsqSize := clampDim(nrm.LSQSize)

		// Reorder buffer: retire is the read point, unread (squashed,
		// flushed or clipped) entries are benign, and a retired entry
		// carries exactly the IQ's per-instruction weights, so the same
		// prefix arrays window here. Squash victims are refetched through
		// the front end while issued survivors retire past them, so
		// co-resident retirees can spread beyond the buffer size; the
		// in-flight slack pads the window. Wrong-path entries never retire,
		// so no issue-slot term is added to the false-DUE side.
		robWin := robSize + slack
		robDen := float64(uint64(robSize) * B)
		b.ROB.SDC = clamp(float64(windowMax(cv.acePreIQ, robWin, B, virt)) / robDen)
		b.ROB.FalseDUE = clamp(float64(windowMax(a.uMaxPre, robWin, B, virt)) / robDen)
		b.ROB.DUE = clamp(b.ROB.SDC + b.ROB.FalseDUE)

		// Load/store queue: only memory operations occupy entries, so the
		// windows run over the mem-op subsequence with the same slack pad.
		// Wrong-path entries are never read and charge nothing on either
		// side; unknown tail slots are all taken as full-width mem ops.
		lsqWin := lsqSize + slack
		lsqDen := float64(uint64(lsqSize) * ace.LSQEntryBits)
		b.LSQ.SDC = clamp(float64(windowMax(cv.aceLSQPre, lsqWin, ace.LSQEntryBits, virt)) / lsqDen)
		b.LSQ.FalseDUE = clamp(float64(windowMax(a.memUPre, lsqWin, ace.LSQEntryBits, virt)) / lsqDen)
		b.LSQ.DUE = clamp(b.LSQ.SDC + b.LSQ.FalseDUE)

		// TAGE: predictor state never affects architectural correctness, so
		// SDC is structurally zero. Under parity each control-class dispatch
		// performs one lookup whose per-table gap is at most the run length,
		// so ReadCycles <= lookups*Tables*Cycles and the false-DUE AVF is at
		// most lookups/TableEntries. Wrong-path fill and squash refetches
		// re-dispatch controls without a static count, so those
		// configurations take the trivial ceiling.
		b.TAGE.SDC = 0
		if hasMispred || cfg.SquashTrigger != pipeline.TriggerNone {
			b.TAGE.FalseDUE = 1
		} else {
			tb := nrm.TAGETableBits
			if tb < 1 {
				tb = 1
			}
			if tb > 12 {
				tb = 12
			}
			entries := uint64(1) << uint(tb)
			b.TAGE.FalseDUE = clamp(float64(a.controls+uint64(virt)) / float64(entries))
		}
		b.TAGE.DUE = b.TAGE.FalseDUE
	}

	b.EstCycles = a.Estimate(cfg)
	return b
}

// Estimate returns Query(cfg).EstCycles from the counters Load keeps —
// front-end bubbles plus rough per-event stall charges over the MinCycles
// floor — without building a deadness view. It is the price a sweep pays
// per cell: a decode and a Load per benchmark, then arithmetic.
func (a *Analyzer) Estimate(cfg pipeline.Config) uint64 {
	if a.commits == 0 {
		return 0
	}
	fed := clampDim(cfg.FrontEndDepth + 2)
	brl := clampDim(cfg.BranchResolveLatency)
	sbSize := clampDim(cfg.StoreBufferSize)
	sdl := clampDim(cfg.StoreDrainLatency)
	minCycles := ceilDiv(uint64(a.commits), uint64(min(clampDim(cfg.IssueWidth), clampDim(cfg.FetchWidth))))
	return minCycles + a.bubbles +
		2*a.loads + a.mispreds*uint64(brl+fed) +
		a.stores*uint64(sdl)/uint64(sbSize)
}

// view returns (building on first use) the deadness-dependent weights for
// one cut. The map makes repeat queries against the same cut — every
// in-order config, and out-of-order configs sharing queue shapes —
// allocation-free.
func (a *Analyzer) view(cut int) *cutView {
	if cv, ok := a.views[cut]; ok {
		return cv
	}
	if len(a.views) > 64 {
		a.views = make(map[int]*cutView) // fuzz-shaped config churn: reset
	}
	k := len(a.body)
	cv := &cutView{
		acePreIQ: make([]uint64, k+1),
		acePreFE: make([]uint64, k+1),
	}
	for f := range cv.fieldPre {
		cv.fieldPre[f] = make([]uint64, k+1)
	}
	dead := ace.AnalyzeDeadness(a.body[:cut])
	B := uint64(isa.EntryPayloadBits)
	for i := 0; i < k; i++ {
		in := &a.body[i]
		hasDest := in.Dest != isa.RegNone
		var wIQ, wFE uint64
		var cat ace.Category
		known := i < cut
		if known {
			cat = dead.OfPos(i)
			wIQ = aceBitsOf(cat, hasDest)
			wFE = wIQ
		} else {
			// Past the cut the category is unresolved. The IQ only charges
			// committed instructions, whose flag-determined categories
			// still pin wrong-path, predicated-false and neutral weights;
			// the front end charges a delivered-never-committed
			// instruction as fully ACE, so it gets no such refinement.
			cat = ace.CatACE
			wIQ = worstIQACE(in)
			wFE = B
		}
		cv.acePreIQ[i+1] = cv.acePreIQ[i] + wIQ
		cv.acePreFE[i+1] = cv.acePreFE[i] + wFE
		for f := isa.Field(0); f < isa.NumFields; f++ {
			var w uint64
			if known {
				if ace.BitACE(cat, f, hasDest) {
					w = uint64(isa.FieldBits[f])
				}
			} else {
				w = worstFieldACE(in, f)
			}
			cv.fieldPre[f][i+1] = cv.fieldPre[f][i] + w
		}
		if known && in.Class == isa.ClassStore && cat.Dead() {
			cv.sbDead++
		}
	}
	// LSQ ACE weights per mem op, mirroring ace.LSQReport.add: live entries
	// charge full width, dead ones only their address bits, predicated-false
	// and wrong-path ones nothing. Flags pin the latter two even past the
	// cut; deadness past the cut stays at the full-width worst case.
	cv.aceLSQPre = make([]uint64, len(a.memPos)+1)
	for j, pos := range a.memPos {
		in := &a.body[pos]
		var w uint64
		switch {
		case in.WrongPath, in.PredFalse:
		case int(pos) < cut && dead.OfPos(int(pos)).Dead():
			w = ace.LSQAddrBits
		default:
			w = ace.LSQEntryBits
		}
		cv.aceLSQPre[j+1] = cv.aceLSQPre[j] + w
	}
	a.views[cut] = cv
	return cv
}

// windowMax returns the maximum sum over any contiguous window of length
// win of the virtual weight sequence (pre's deltas over [0, len(pre)-1),
// then tail copies of tailW). This is the per-cycle charge ceiling of
// fact 2: co-resident committed instructions occupy at most win
// contiguous positions.
func windowMax(pre []uint64, win int, tailW uint64, tail int) uint64 {
	n := len(pre) - 1
	total := n + tail
	if win >= total {
		return pre[n] + uint64(tail)*tailW
	}
	var best uint64
	// Windows starting in the real body (possibly overhanging the tail).
	for s := 0; s <= n && s+win <= total; s++ {
		hi := s + win
		over := 0
		if hi > n {
			over = hi - n
			hi = n
		}
		if sum := pre[hi] - pre[s] + uint64(over)*tailW; sum > best {
			best = sum
		}
	}
	// Any window fully inside the tail.
	if tail >= win {
		if sum := uint64(win) * tailW; sum > best {
			best = sum
		}
	}
	return best
}

// worstUnACE is the largest un-ACE weight an instruction's pre-issue wait
// can carry under any deadness outcome — the direction fact 1 cannot
// cover, pinned by content alone. Mirrors ace.Report.addRead: the
// complement of the smallest possible ACE weight.
func worstUnACE(in *isa.Inst) uint64 {
	B := uint64(isa.EntryPayloadBits)
	switch {
	case in.WrongPath, in.PredFalse:
		return B
	case in.Class.Neutral():
		return B - uint64(isa.FieldBits[isa.FieldOpcode])
	case in.Class == isa.ClassStore:
		return B // a store proven dead keeps no ACE share in the queue
	case in.Dest != isa.RegNone:
		return B - uint64(isa.FieldBits[isa.FieldDest])
	default:
		return 0 // destination-less control flow is always fully ACE
	}
}

// worstLSQUnACE is the largest un-ACE weight a memory operation's
// load/store-queue occupancy can carry under any deadness outcome,
// mirroring ace.LSQReport.add: predicated-false entries are read at retire
// only to be discarded (full width), any other committed mem op may prove
// dead (data bits), and wrong-path entries are never read at all (benign,
// so no DUE either).
func worstLSQUnACE(in *isa.Inst) uint64 {
	switch {
	case in.WrongPath:
		return 0
	case in.PredFalse:
		return ace.LSQEntryBits
	default:
		return ace.LSQDataBits
	}
}

// worstIQACE is the largest ACE weight a committed instruction past the
// deadness cut can carry: full width unless its flags pin the category.
func worstIQACE(in *isa.Inst) uint64 {
	switch {
	case in.WrongPath, in.PredFalse:
		return 0
	case in.Class.Neutral():
		return uint64(isa.FieldBits[isa.FieldOpcode])
	default:
		return uint64(isa.EntryPayloadBits)
	}
}

// worstFieldACE is worstIQACE restricted to one field.
func worstFieldACE(in *isa.Inst, f isa.Field) uint64 {
	switch {
	case in.WrongPath, in.PredFalse:
		return 0
	case in.Class.Neutral():
		if f == isa.FieldOpcode {
			return uint64(isa.FieldBits[f])
		}
		return 0
	default:
		return uint64(isa.FieldBits[f])
	}
}

// aceBitsOf mirrors ace.Report.addRead's per-category ACE bit weights.
func aceBitsOf(cat ace.Category, hasDest bool) uint64 {
	switch {
	case cat == ace.CatACE:
		return uint64(isa.EntryPayloadBits)
	case cat == ace.CatNeutral:
		return uint64(isa.FieldBits[isa.FieldOpcode])
	case cat.Dead():
		if hasDest {
			return uint64(isa.FieldBits[isa.FieldDest])
		}
		return 0
	default: // wrong path, predicated false
		return 0
	}
}

// regFileCapacityBits mirrors the register-file report's denominator.
var regFileCapacityBits = uint64(isa.NumIntRegs)*ace.IntRegBits +
	uint64(isa.NumFPRegs)*ace.FPRegBits +
	uint64(isa.NumPredRegs)*ace.PredRegBits

func regBits(r isa.Reg) uint64 {
	switch {
	case r.IsInt():
		return ace.IntRegBits
	case r.IsFP():
		return ace.FPRegBits
	default:
		return ace.PredRegBits
	}
}

// clampDim sanitizes a config dimension: at least 1 so denominators stay
// positive, capped so fuzzed giants cannot overflow or stall the windows.
func clampDim(v int) int {
	if v < 1 {
		return 1
	}
	if v > 1<<20 {
		return 1 << 20
	}
	return v
}

func clamp(x float64) float64 {
	if x > 1 {
		return 1
	}
	if x < 0 || x != x {
		return 0
	}
	return x
}

func ceilDiv(a, b uint64) uint64 { return (a + b - 1) / b }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
