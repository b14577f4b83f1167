package ace

import (
	"softerror/internal/isa"
	"softerror/internal/pipeline"
)

// RegFileReport is the vulnerability analysis of the architectural register
// files — the "other structures" of the paper's conclusion, whose AVF the
// same π-bit mechanisms can reduce once they exist for the instruction
// queue.
//
// A register bit-cycle is classified by what happens to the value it holds:
//
//	ACE        between the value's definition and its last read by a live
//	           consumer: a strike there corrupts architectural output;
//	DeadRead   read again, but only by dynamically dead consumers: with
//	           parity these reads raise false DUEs; π-bit propagation
//	           (per-register and beyond) covers them;
//	ExACE      after the last read, before the overwrite: never consumed;
//	Untouched  before a register's first definition in the observed window.
//
// Bit-cycles are weighted by register width: 64-bit integer registers,
// 82-bit floating-point registers (IA-64's extended format), 1-bit
// predicates.
type RegFileReport struct {
	Cycles uint64

	ACEBC       uint64
	DeadReadBC  uint64
	ExACEBC     uint64
	UntouchedBC uint64

	TotalBC uint64
}

// Register widths in bits, per file.
const (
	IntRegBits  = 64
	FPRegBits   = 82 // IA-64 extended floating point
	PredRegBits = 1
)

func regBits(r isa.Reg) uint64 {
	switch {
	case r.IsInt():
		return IntRegBits
	case r.IsFP():
		return FPRegBits
	default:
		return PredRegBits
	}
}

// regFileCapacityBits is the total width of the architected register state.
var regFileCapacityBits = func() uint64 {
	return uint64(isa.NumIntRegs)*IntRegBits +
		uint64(isa.NumFPRegs)*FPRegBits +
		uint64(isa.NumPredRegs)*PredRegBits
}()

// regValue tracks the live definition occupying one register.
type regValue struct {
	defCycle     uint64
	lastLiveRead uint64 // cycle of the latest read by a live consumer
	lastAnyRead  uint64 // cycle of the latest read by any consumer
	hasLiveRead  bool
	hasAnyRead   bool
	valid        bool
}

// AnalyzeRegFile integrates register-value lifetimes over the trace's
// committed stream. It requires a trace recorded with commit cycles and the
// deadness analysis of the same commit log (before Compact).
func AnalyzeRegFile(tr *pipeline.Trace, dead *Deadness) *RegFileReport {
	cats := make([]Category, len(tr.CommitLog))
	for i := range cats {
		cats[i] = dead.OfPos(i)
	}
	return analyzeRegFileLog(tr.CommitLog, tr.CommitCycles, cats, nil, tr.Cycles)
}

// analyzeRegFileLog is AnalyzeRegFile over a bare program-order commit log
// with its issue cycles and categories index-aligned — the entry point the
// BatchCollector shares, since the register-file analysis is inherently a
// program-order pass over commits, not residencies. Categories come in by
// index, the way every deadness classification is kept. A non-nil mask
// (one bit per log index) restricts the pass to the committed positions of
// a lane that stopped with commit holes; nil takes the whole log.
func analyzeRegFileLog(log []isa.Inst, commitCycles []uint64, cats []Category, mask []uint64, cycles uint64) *RegFileReport {
	rep := &RegFileReport{
		Cycles:  cycles,
		TotalBC: cycles * regFileCapacityBits,
	}
	if len(log) == 0 {
		rep.UntouchedBC = rep.TotalBC
		return rep
	}

	var state [isa.NumRegs]regValue
	end := cycles

	close := func(r isa.Reg, v *regValue, until uint64) {
		if !v.valid || until < v.defCycle {
			return
		}
		bits := regBits(r)
		aceEnd := v.defCycle
		if v.hasLiveRead {
			aceEnd = v.lastLiveRead
		}
		deadEnd := aceEnd
		if v.hasAnyRead && v.lastAnyRead > deadEnd {
			deadEnd = v.lastAnyRead
		}
		if deadEnd > until {
			deadEnd = until
		}
		if aceEnd > until {
			aceEnd = until
		}
		rep.ACEBC += (aceEnd - v.defCycle) * bits
		rep.DeadReadBC += (deadEnd - aceEnd) * bits
		rep.ExACEBC += (until - deadEnd) * bits
	}

	for i := range log {
		if !committedAt(mask, i) {
			continue
		}
		in := &log[i]
		cycle := commitCycles[i]
		cat := cats[i]

		// Reads: neutral instructions consume nothing; predicated-false
		// instructions read only their guard. A read is "live" when the
		// reader itself can affect the outcome.
		if !in.Class.Neutral() {
			liveReader := !cat.Dead()
			read := func(r isa.Reg) {
				if r == isa.RegNone {
					return
				}
				v := &state[r]
				if !v.valid {
					return
				}
				v.hasAnyRead = true
				if cycle > v.lastAnyRead {
					v.lastAnyRead = cycle
				}
				if liveReader {
					v.hasLiveRead = true
					if cycle > v.lastLiveRead {
						v.lastLiveRead = cycle
					}
				}
			}
			read(in.PredGuard)
			if !in.PredFalse {
				read(in.Src1)
				read(in.Src2)
			}
		}

		// Defs close the previous value.
		if in.HasDest() {
			r := in.Dest
			close(r, &state[r], cycle)
			state[r] = regValue{defCycle: cycle, valid: true}
		}
	}

	// Values still live at the end of the window: conservatively ACE
	// through the end (a future read may consume them), mirroring the
	// live-out rule of the instruction-queue analysis.
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		v := &state[r]
		if !v.valid {
			continue
		}
		bits := regBits(r)
		rep.ACEBC += (end - v.defCycle) * bits
		v.valid = false
	}

	used := rep.ACEBC + rep.DeadReadBC + rep.ExACEBC
	if used > rep.TotalBC {
		// Clamp: overlapping commit cycles at the very end of a clipped
		// run cannot overflow by more than rounding.
		used = rep.TotalBC
	}
	rep.UntouchedBC = rep.TotalBC - used
	return rep
}

// SDCAVF is the probability a uniformly random register-file bit-cycle
// strike corrupts architectural output (unprotected file).
func (r *RegFileReport) SDCAVF() float64 { return r.frac(r.ACEBC) }

// TrueDUEAVF equals SDCAVF under single-bit parity.
func (r *RegFileReport) TrueDUEAVF() float64 { return r.frac(r.ACEBC) }

// FalseDUEAVF is the fraction of bit-cycles whose faults a parity-checked
// register file would flag although only dead consumers read them; π-bit
// propagation through the pipeline covers exactly these.
func (r *RegFileReport) FalseDUEAVF() float64 { return r.frac(r.DeadReadBC) }

// DUEAVF is the parity-protected register file's total DUE AVF.
func (r *RegFileReport) DUEAVF() float64 { return r.TrueDUEAVF() + r.FalseDUEAVF() }

// ExACEFraction and UntouchedFraction expose the benign classes.
func (r *RegFileReport) ExACEFraction() float64 { return r.frac(r.ExACEBC) }

// UntouchedFraction is the never-defined fraction of the window.
func (r *RegFileReport) UntouchedFraction() float64 { return r.frac(r.UntouchedBC) }

func (r *RegFileReport) frac(bc uint64) float64 {
	if r.TotalBC == 0 {
		return 0
	}
	return float64(bc) / float64(r.TotalBC)
}
