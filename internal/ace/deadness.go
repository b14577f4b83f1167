package ace

import (
	"sync"

	"softerror/internal/isa"
)

// Deadness is the result of dynamic dead-code discovery over a committed
// instruction stream. It classifies every committed instruction into a
// Category and records, for first-level dead instructions, the commit
// distance from definition to overwrite — the quantity that determines
// whether a PET buffer of a given size can prove the instruction dead.
type Deadness struct {
	// cats is the per-instruction classification in log order (among the
	// analysed instructions), read through OfPos. A recorded trace's
	// residencies reach it through pipeline.LogPositions.
	cats []Category

	// Counts tallies committed instructions per category.
	Counts [NumCategories]uint64

	// FDDRegDist holds, for each CatFDDReg instruction, the number of
	// commits between it and the overwriting instruction. FDDRetDist and
	// FDDMemDist hold the same for return-dead writes and dead stores.
	FDDRegDist []int
	FDDRetDist []int
	FDDMemDist []int
}

// maxTrackedDepth bounds the call-depth bookkeeping for return-dead
// detection; deeper nesting is clamped (a safe, conservative choice).
const maxTrackedDepth = 64

// Per-instruction facts the reverse pass folds from consumers into their
// producers, plus the definition's own return-dead bit from the forward
// pass.
const (
	flagRead    uint8 = 1 << iota // some later instruction consumed the value
	flagLive                      // a live (not dead) instruction consumed it
	flagMem                       // a memory-tracked dead instruction consumed it
	flagRetDead                   // a return below the def's depth preceded its overwrite
)

// posRank locates one pending store: its log position and its rank among
// the analysed (unmasked) instructions.
type posRank struct{ pos, rank int32 }

// deadScratch is the deadness kernel's working storage, every array indexed
// by log position. A zero value is ready to use; keeping one across
// analyses (as a BatchCollector does) reuses its arrays.
type deadScratch struct {
	// dist is the rank distance to the overwriting definition or store;
	// 0 means never overwritten by the end of the log.
	dist []int32
	// prod holds an instruction's producers — the live definitions of its
	// guard, Src1 and Src2 and, for a load, the store it reads — or -1.
	prod [][4]int32
	flag []uint8
	// cat is the classification by log position; positions outside the
	// mask hold stale values.
	cat     []Category
	storeAt map[uint64]posRank // pending store per address
}

// AnalyzeDeadness discovers dynamically dead instructions in a committed
// instruction log (program order). The classification follows §4.1 of the
// paper:
//
//   - a register write overwritten before any read is first-level dead
//     (FDD), attributed to a procedure return when one intervened;
//   - a register write whose every reader is itself dead is transitively
//     dead (TDD);
//   - a store whose memory value is overwritten before any load is dead,
//     tracked via memory; instructions feeding only dead stores are TDD
//     tracked via memory;
//   - values never overwritten by the end of the log are conservatively
//     live, as are stores never overwritten (matching the PET buffer's
//     "absence of an overwriting instruction" rule).
//
// Reads by neutral instructions (no-ops, prefetches, hints) and by
// predicated-false instructions do not make a value live: those readers
// cannot affect the program's outcome.
//
// The classification is two array passes with no per-definition lists.
// The forward pass records, for each instruction, the distance to its
// overwrite, its return-dead bit and up to four producer positions (guard,
// Src1, Src2, and the store a load reads). Every consumer follows its
// producers in the log, so the reverse pass meets an instruction only after
// all its readers: it classifies the instruction from the reader facts
// gathered in its flag byte (any reader, a live reader, a memory-tracked
// dead reader), then ORs its own facts into its producers.
func AnalyzeDeadness(log []isa.Inst) *Deadness {
	s := scratchPool.Get().(*deadScratch)
	defer scratchPool.Put(s)
	return s.analyze(log, nil)
}

// scratchPool lends AnalyzeDeadness its kernel scratch, so repeated
// one-shot analyses (a served static bound per query, the seraudit
// checks) reuse the arrays. The scratch refers to no log: the results own
// their slices.
var scratchPool = sync.Pool{New: func() any { return new(deadScratch) }}

// committedAt reports whether position i is set in a commit bitmap; a nil
// bitmap admits every position.
func committedAt(mask []uint64, i int) bool {
	return mask == nil || mask[i>>6]>>(uint(i)&63)&1 == 1
}

// analyze is the deadness kernel. A non-nil mask (one bit per log
// position) restricts the analysis to the set positions: the result equals
// AnalyzeDeadness over the compacted sub-log of those positions, with FDD
// distances counted in rank (compacted) coordinates, while s.cat stays
// indexed by log position. This lets an out-of-order lane with commit holes
// analyse its committed bodies in place, without copying them out.
func (s *deadScratch) analyze(log []isa.Inst, mask []uint64) *Deadness {
	n := len(log)
	if cap(s.dist) < n {
		s.dist = make([]int32, n)
		s.prod = make([][4]int32, n)
		s.flag = make([]uint8, n)
		s.cat = make([]Category, n)
	}
	s.dist, s.prod, s.flag, s.cat = s.dist[:n], s.prod[:n], s.flag[:n], s.cat[:n]
	if s.storeAt == nil {
		s.storeAt = make(map[uint64]posRank)
	}
	clear(s.storeAt)

	// regPos/regRank locate the live definition of each register (-1 if
	// none). lastBelow[d] is the most recent position at which the call
	// depth was strictly below d; used to detect return-dead overwrites.
	var regPos, regRank [isa.NumRegs]int32
	for i := range regPos {
		regPos[i] = -1
	}
	var lastBelow [maxTrackedDepth + 2]int32
	for i := range lastBelow {
		lastBelow[i] = -1
	}
	prevDepth := -1
	rank := int32(0)
	def := func(r isa.Reg) int32 {
		if r == isa.RegNone {
			return -1
		}
		return regPos[r]
	}
	for i := range log {
		if !committedAt(mask, i) {
			continue
		}
		in := &log[i]
		idx := int32(i)
		s.dist[i], s.flag[i] = 0, 0

		// Maintain return timestamps. The first instruction seeds the
		// previous depth unclamped.
		depth := int(in.CallDepth)
		if prevDepth < 0 {
			prevDepth = depth
		}
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
		p := [4]int32{-1, -1, -1, -1}
		if !in.Class.Neutral() {
			p[0] = def(in.PredGuard)
			if !in.PredFalse {
				p[1] = def(in.Src1)
				p[2] = def(in.Src2)
			}
		}

		// Memory effects, per address: a load reads the pending store,
		// the next store overwrites it.
		switch {
		case in.Class == isa.ClassLoad && !in.PredFalse:
			if st, ok := s.storeAt[in.Addr]; ok {
				p[3] = st.pos
			}
		case in.Class == isa.ClassStore && !in.PredFalse:
			if prev, ok := s.storeAt[in.Addr]; ok {
				s.dist[prev.pos] = rank - prev.rank
			}
			s.storeAt[in.Addr] = posRank{idx, rank}
		}
		s.prod[i] = p

		// Defs: close the previous definition of Dest.
		if in.HasDest() {
			r := in.Dest
			if prev := regPos[r]; prev >= 0 {
				s.dist[prev] = rank - regRank[r]
				defDepth := int(log[prev].CallDepth)
				if defDepth > maxTrackedDepth {
					defDepth = maxTrackedDepth
				}
				if lastBelow[defDepth] > prev {
					s.flag[prev] |= flagRetDead
				}
			}
			regPos[r], regRank[r] = idx, rank
		}
		rank++
	}

	d := &Deadness{}
	if rank == 0 {
		return d
	}
	// Reverse pass: classify, then hand this instruction's facts to its
	// producers.
	for i := n - 1; i >= 0; i-- {
		if !committedAt(mask, i) {
			continue
		}
		c := classify(&log[i], s.dist[i], s.flag[i])
		s.cat[i] = c
		d.Counts[c]++
		f := flagRead | flagLive
		if c.Dead() {
			f = flagRead
			if c == CatFDDMem || c == CatTDDMem {
				f |= flagMem
			}
		}
		for _, pi := range s.prod[i] {
			if pi >= 0 {
				s.flag[pi] |= f
			}
		}
	}

	d.cats = make([]Category, 0, rank)
	d.FDDRegDist = distList(d.Counts[CatFDDReg])
	d.FDDRetDist = distList(d.Counts[CatFDDRet])
	d.FDDMemDist = distList(d.Counts[CatFDDMem])
	for i := range log {
		if !committedAt(mask, i) {
			continue
		}
		c := s.cat[i]
		d.cats = append(d.cats, c)
		switch c {
		case CatFDDReg:
			d.FDDRegDist = append(d.FDDRegDist, int(s.dist[i]))
		case CatFDDRet:
			d.FDDRetDist = append(d.FDDRetDist, int(s.dist[i]))
		case CatFDDMem:
			d.FDDMemDist = append(d.FDDMemDist, int(s.dist[i]))
		}
	}
	return d
}

// distList pre-sizes one FDD distance population; an empty population
// stays nil.
func distList(n uint64) []int {
	if n == 0 {
		return nil
	}
	return make([]int, 0, n)
}

// classify assigns one instruction's category from its overwrite distance
// and the facts its readers (all later in the log) left in its flag byte.
func classify(in *isa.Inst, dist int32, f uint8) Category {
	switch {
	case in.WrongPath:
		return CatWrongPath
	case in.PredFalse:
		return CatPredFalse
	case in.Class.Neutral():
		return CatNeutral
	case in.Class == isa.ClassStore:
		switch {
		case dist == 0:
			return CatACE // never overwritten: conservatively live
		case f&flagRead == 0:
			return CatFDDMem // overwritten before any load
		case f&flagLive != 0:
			return CatACE // a live load consumed the value
		}
		return CatTDDMem // read only by dead loads
	case in.HasDest():
		switch {
		case dist == 0:
			return CatACE // live-out: conservatively live
		case f&flagRead == 0:
			if f&flagRetDead != 0 {
				return CatFDDRet
			}
			return CatFDDReg
		case f&flagLive != 0:
			return CatACE // at least one live reader
		case f&flagMem != 0:
			return CatTDDMem
		}
		return CatTDDReg
	default:
		// Branches, calls, returns, I/O, destination-less instructions.
		return CatACE
	}
}

// OfPos returns the category of the i-th analysed instruction in log
// order — log position i for an unmasked analysis. Positions outside the
// analysed log are conservatively CatACE. Callers holding a residency
// rather than a position resolve it with pipeline.LogPositions; a
// wrong-path residency has no position and classifies as CatWrongPath.
func (d *Deadness) OfPos(i int) Category {
	if uint(i) < uint(len(d.cats)) {
		return d.cats[i]
	}
	return CatACE
}

// ofResidency classifies the instruction of a residency whose commit-log
// position is pos (-1 when it never reached the log): wrong-path copies are
// CatWrongPath, committed instructions missing from the log (e.g. past its
// end) are conservatively CatACE.
func (d *Deadness) ofResidency(in *isa.Inst, pos int32) Category {
	if in.WrongPath {
		return CatWrongPath
	}
	return d.OfPos(int(pos))
}

// Compact releases the per-instruction classification, keeping only the
// aggregate counts and FDD distance populations. After Compact, OfPos
// answers conservatively (CatACE) for every position. Use it when
// memoising many analyses whose per-instruction detail is no longer
// needed.
func (d *Deadness) Compact() { d.cats = nil }

// Committed returns the number of classified committed instructions.
func (d *Deadness) Committed() uint64 {
	var n uint64
	for _, c := range d.Counts {
		n += c
	}
	return n
}

// DeadFraction returns the fraction of committed instructions that are
// dynamically dead (any dead category); the paper reports ~20% across its
// binaries.
func (d *Deadness) DeadFraction() float64 {
	total := d.Committed()
	if total == 0 {
		return 0
	}
	dead := d.Counts[CatFDDReg] + d.Counts[CatFDDRet] + d.Counts[CatTDDReg] +
		d.Counts[CatFDDMem] + d.Counts[CatTDDMem]
	return float64(dead) / float64(total)
}

// PETCoverage returns the fraction of a dead population (given as def-to-
// overwrite distances) provable by a PET buffer with the given number of
// entries: exactly those whose overwrite lands within the buffer window.
func PETCoverage(distances []int, entries int) float64 {
	if len(distances) == 0 {
		return 0
	}
	covered := 0
	for _, dist := range distances {
		if dist <= entries {
			covered++
		}
	}
	return float64(covered) / float64(len(distances))
}
