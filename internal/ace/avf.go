package ace

import (
	"fmt"

	"softerror/internal/isa"
	"softerror/internal/pipeline"
)

// Report is the integrated vulnerability analysis of one simulation: the
// occupancy of the instruction queue decomposed into the paper's bit-cycle
// classes, and the AVFs derived from them.
//
// All *BC fields are payload-bit-cycles. The classes partition the total
// IQSize × Cycles × EntryPayloadBits budget:
//
//	Idle       entry held no instruction;
//	NeverRead  entry held a copy that was removed without being read
//	           (squashed, wrong-path flushed before issue, or still
//	           unissued at the end of the run) — benign, like idle;
//	ExACE      post-issue lingering of a read entry: issued for the last
//	           time but not yet evicted;
//	ACE        pre-issue residency of bits whose corruption changes the
//	           program outcome;
//	UnACE[c]   pre-issue residency of bits that are read but cannot change
//	           the outcome, by un-ACE category c.
type Report struct {
	Cycles uint64
	// Entries is the analysed structure's entry count (64 for the paper's
	// instruction queue; the front-end buffer differs).
	Entries int
	BitsPer int // payload bits per entry

	IdleBC      uint64
	NeverReadBC uint64
	ExACEBC     uint64
	ACEBC       uint64
	// ACEControlBC is the subset of ACEBC contributed by control-flow
	// instructions (branches, calls, returns). Wang et al. [30] found
	// ~40% of dynamic conditional branches are direction-insensitive
	// ("Y-branches"); the paper groups those under true DUE and bounds
	// their effect at "a few percentage points". ACEControlBC is that
	// bound's numerator: the most AVF that Y-branch analysis could ever
	// reclaim.
	ACEControlBC uint64
	UnACEBC      [NumCategories]uint64

	// FieldACEBC and FieldUnACEBC decompose the read bit-cycles per
	// instruction field (§4.2: π-bit granularity can isolate which bits
	// faulted; per-field numbers show where the vulnerability lives —
	// e.g. a dead instruction's ACE share sits entirely in its
	// destination specifier).
	FieldACEBC   [isa.NumFields]uint64
	FieldUnACEBC [isa.NumFields]uint64

	// Dead is the deadness analysis the report was built from; callers use
	// it for PET-coverage curves and per-category instruction counts.
	Dead *Deadness
}

// Analyze runs the full ACE analysis for a pipeline trace: dead-code
// discovery over the commit log, then per-field residency integration of
// the instruction queue.
func Analyze(tr *pipeline.Trace) *Report {
	dead := AnalyzeDeadness(tr.CommitLog)
	return AnalyzeWith(tr, dead)
}

// AnalyzeWith integrates the instruction queue's residencies against a
// pre-computed deadness analysis (useful when several protection scenarios
// share one trace).
func AnalyzeWith(tr *pipeline.Trace, dead *Deadness) *Report {
	return AnalyzeStructure(tr.Residencies, tr.CommitLog, tr.Cycles, tr.IQSize, dead)
}

// AnalyzeFrontEnd integrates the fetch buffer's residencies: the front-end
// structures of §4.2, where a π bit per fetch chunk defers errors detected
// before individual instructions exist. Delivery to decode is the read
// point; flushed chunks are never read.
func AnalyzeFrontEnd(tr *pipeline.Trace, dead *Deadness) *Report {
	return AnalyzeStructure(tr.FrontEnd, tr.CommitLog, tr.Cycles, tr.FrontEndCap, dead)
}

// AnalyzeStructure integrates arbitrary residency intervals for a
// structure with the given entry count. log is the program-order commit
// log dead was analysed over; each read residency takes the category of
// its log position (pipeline.LogPositions).
func AnalyzeStructure(residencies []pipeline.Residency, log []isa.Inst, cycles uint64, entries int, dead *Deadness) *Report {
	r := &Report{
		Cycles:  cycles,
		Entries: entries,
		BitsPer: isa.EntryPayloadBits,
		Dead:    dead,
	}
	pos := pipeline.LogPositions(residencies, log)
	for i := range residencies {
		res := &residencies[i]
		occ := res.Occupancy()
		if occ == 0 {
			continue
		}
		if !res.Issued {
			r.addNeverRead(occ)
			continue
		}
		cat := dead.ofResidency(&res.Inst, pos[i])
		r.addRead(res.Issue-res.Enq, res.Evict-res.Issue, cat,
			res.Inst.Dest != isa.RegNone, res.Inst.Class.IsControl())
	}
	r.finalize()
	return r
}

// addNeverRead charges one occupancy interval whose copy was removed
// without being read (squashed, flushed before issue, or clipped at run
// end): the bits were never consumed, so a fault there is benign.
func (r *Report) addNeverRead(occ uint64) {
	r.NeverReadBC += occ * uint64(isa.EntryPayloadBits)
}

// addRead charges one issued residency: wait cycles of pre-read exposure,
// classified by category and per field, plus linger cycles of post-issue
// Ex-ACE state. This is the single classification point — the trace
// analyses and the streaming BatchCollector both fold through it, so the
// two paths cannot diverge arithmetically.
func (r *Report) addRead(wait, linger uint64, cat Category, hasDest, isControl bool) {
	allBits := uint64(isa.EntryPayloadBits)
	r.ExACEBC += linger * allBits

	// Charge every field's wait cycles to ACE or un-ACE according to the
	// struck-bit ground truth for the category.
	for f := isa.Field(0); f < isa.NumFields; f++ {
		bc := wait * uint64(isa.FieldBits[f])
		if BitACE(cat, f, hasDest) {
			r.FieldACEBC[f] += bc
		} else {
			r.FieldUnACEBC[f] += bc
		}
	}

	switch cat {
	case CatACE:
		r.ACEBC += wait * allBits
		if isControl {
			r.ACEControlBC += wait * allBits
		}
	case CatNeutral:
		// Opcode bits of a neutral instruction stay ACE: a strike
		// there can turn a no-op into a real operation.
		opcodeBits := uint64(isa.FieldBits[isa.FieldOpcode])
		r.ACEBC += wait * opcodeBits
		r.UnACEBC[cat] += wait * (allBits - opcodeBits)
	case CatFDDReg, CatFDDRet, CatTDDReg, CatFDDMem, CatTDDMem:
		// Destination-specifier bits of a dead instruction stay ACE:
		// a strike there redirects the (dead) write onto a live
		// register. Dead stores have no destination specifier.
		aceBits := uint64(isa.FieldBits[isa.FieldDest])
		if !hasDest {
			aceBits = 0
		}
		r.ACEBC += wait * aceBits
		r.UnACEBC[cat] += wait * (allBits - aceBits)
	default: // wrong-path, pred-false: nothing in the entry matters
		r.UnACEBC[cat] += wait * allBits
	}
}

// finalize computes the idle remainder and checks that the accounted
// classes fit the structure's bit-cycle capacity.
func (r *Report) finalize() {
	total := r.TotalBC()
	used := r.NeverReadBC + r.ExACEBC + r.ACEBC
	for _, bc := range r.UnACEBC {
		used += bc
	}
	if used > total {
		panic(fmt.Sprintf("ace: accounted bit-cycles %d exceed capacity %d", used, total))
	}
	r.IdleBC = total - used
}

// TotalBC returns the total payload-bit-cycle capacity of the queue.
func (r *Report) TotalBC() uint64 {
	return r.Cycles * uint64(r.Entries) * uint64(r.BitsPer)
}

// UnACETotalBC sums un-ACE bit-cycles over all categories.
func (r *Report) UnACETotalBC() uint64 {
	var s uint64
	for _, bc := range r.UnACEBC {
		s += bc
	}
	return s
}

// SDCAVF is the architectural vulnerability factor of the unprotected
// queue: the probability that a uniformly random bit-cycle strike produces
// silent data corruption.
func (r *Report) SDCAVF() float64 { return r.frac(r.ACEBC) }

// TrueDUEAVF is the true-DUE AVF of the parity-protected queue; with
// single-bit parity it equals the unprotected SDC AVF (§2.2).
func (r *Report) TrueDUEAVF() float64 { return r.frac(r.ACEBC) }

// FalseDUEAVF is the false-DUE AVF of the parity-protected queue: faults on
// read but un-ACE state that a conservative design would flag as errors.
func (r *Report) FalseDUEAVF() float64 { return r.frac(r.UnACETotalBC()) }

// DUEAVF is the total DUE AVF of the parity-protected queue.
func (r *Report) DUEAVF() float64 { return r.TrueDUEAVF() + r.FalseDUEAVF() }

// YBranchBound is the largest possible AVF reduction from Y-branch
// analysis (Wang et al. [30]): the fraction of bit-cycles held by ACE
// control-flow instructions. The paper's back-of-the-envelope claim is
// that this is "not more than a few percentage points".
func (r *Report) YBranchBound() float64 { return r.frac(r.ACEControlBC) }

// IdleFraction, NeverReadFraction and ExACEFraction expose the benign
// occupancy classes (§4.1's breakdown).
func (r *Report) IdleFraction() float64 { return r.frac(r.IdleBC) }

// NeverReadFraction is the fraction of bit-cycles in copies that were
// removed without ever being read.
func (r *Report) NeverReadFraction() float64 { return r.frac(r.NeverReadBC) }

// ExACEFraction is the fraction of bit-cycles in Ex-ACE state.
func (r *Report) ExACEFraction() float64 { return r.frac(r.ExACEBC) }

func (r *Report) frac(bc uint64) float64 {
	total := r.TotalBC()
	if total == 0 {
		return 0
	}
	return float64(bc) / float64(total)
}

// FalseDUERemaining returns the false-DUE AVF that survives after
// cumulatively deploying the tracking mechanisms up to the given level
// (Figure 2's stacked coverage). petEntries sizes the PET buffer when
// level >= TrackPET; the window-limited PET covers only the provable subset
// of CatFDDReg.
func (r *Report) FalseDUERemaining(level TrackLevel, petEntries int) float64 {
	var remaining float64
	for c := Category(0); c < NumCategories; c++ {
		bc := r.UnACEBC[c]
		if bc == 0 || !c.UnACE() {
			continue
		}
		covered := 0.0
		switch {
		case c.Track() <= level:
			covered = 1
		case c == CatFDDReg && level == TrackPET:
			// The PET buffer proves dead exactly those FDD-reg writes
			// whose overwrite lands within its window.
			covered = PETCoverage(r.Dead.FDDRegDist, petEntries)
		}
		remaining += float64(bc) * (1 - covered)
	}
	total := r.TotalBC()
	if total == 0 {
		return 0
	}
	return remaining / float64(total)
}
