package ace

import "softerror/internal/pipeline"

// This file analyses the out-of-order family's extra structures. The
// reorder buffer carries the same instruction payload as the IQ, so it
// reuses Report with retire as the read point (no post-read linger: an
// entry leaves the buffer the cycle it retires, so Issue == Evict and the
// Ex-ACE bucket stays empty). The load/store queue is an address+data
// structure like the store buffer, with its own report below; the TAGE
// predictor's exposure integral closes in TAGEReport without per-event
// residencies at all.

// Load/store-queue entry layout, mirroring the store buffer's.
const (
	// LSQDataBits is the width of the queued store data or load result.
	LSQDataBits = 64
	// LSQAddrBits is the width of the queued physical address.
	LSQAddrBits = 44
	// LSQEntryBits is the payload width of one load/store-queue entry.
	LSQEntryBits = LSQDataBits + LSQAddrBits
)

// TAGE entry layout: partial tag, signed prediction counter, usefulness
// counter.
const (
	TAGETagBits    = 12
	TAGECtrBits    = 3
	TAGEUsefulBits = 2
	// TAGEEntryBits is the payload width of one predictor-table entry.
	TAGEEntryBits = TAGETagBits + TAGECtrBits + TAGEUsefulBits
)

// AnalyzeROB integrates a recorded trace's reorder-buffer residencies.
func AnalyzeROB(tr *pipeline.Trace, dead *Deadness) *Report {
	return AnalyzeStructure(tr.ROB, tr.CommitLog, tr.Cycles, tr.ROBCap, dead)
}

// LSQReport is the vulnerability analysis of the load/store queue. Live
// entries are fully ACE until their read (retire or drain). Dynamically
// dead memory operations keep ACE address bits — corrupting them redirects
// the access onto a live location — while their data bits are un-ACE.
// Predicated-false stores are read at retire only to be discarded, so the
// whole entry is un-ACE (a parity flag there is a false DUE).
type LSQReport struct {
	Cycles  uint64
	Entries int

	ACEBC       uint64
	DeadDataBC  uint64
	PredFalseBC uint64
	NeverReadBC uint64
	IdleBC      uint64
}

// AnalyzeLSQ integrates a recorded trace's load/store-queue residencies.
func AnalyzeLSQ(tr *pipeline.Trace, dead *Deadness) *LSQReport {
	r := &LSQReport{Cycles: tr.Cycles, Entries: tr.LSQCap}
	pos := pipeline.LogPositions(tr.LSQ, tr.CommitLog)
	for i := range tr.LSQ {
		res := &tr.LSQ[i]
		occ := res.Occupancy()
		if occ == 0 {
			continue
		}
		if !res.Issued {
			r.addNeverRead(occ)
			continue
		}
		r.add(occ, dead.ofResidency(&res.Inst, pos[i]))
	}
	r.finalize()
	return r
}

// add charges one read (retired or drained) entry's occupancy under its
// deadness category — the shared classification point of the trace and
// streaming analyses.
func (r *LSQReport) add(occ uint64, cat Category) {
	switch cat {
	case CatPredFalse:
		r.PredFalseBC += occ * LSQEntryBits
	case CatFDDReg, CatFDDRet, CatTDDReg, CatFDDMem, CatTDDMem:
		r.ACEBC += occ * LSQAddrBits
		r.DeadDataBC += occ * LSQDataBits
	default:
		r.ACEBC += occ * LSQEntryBits
	}
}

// addNeverRead charges an entry removed without a read (squashed, flushed,
// or clipped unretired at run end): benign.
func (r *LSQReport) addNeverRead(occ uint64) {
	r.NeverReadBC += occ * LSQEntryBits
}

// finalize computes the idle remainder.
func (r *LSQReport) finalize() {
	total := r.TotalBC()
	used := r.ACEBC + r.DeadDataBC + r.PredFalseBC + r.NeverReadBC
	if used > total {
		used = total
	}
	r.IdleBC = total - used
}

// TotalBC returns the queue's bit-cycle capacity.
func (r *LSQReport) TotalBC() uint64 {
	return r.Cycles * uint64(r.Entries) * LSQEntryBits
}

// SDCAVF is the unprotected queue's vulnerability.
func (r *LSQReport) SDCAVF() float64 { return r.frac(r.ACEBC) }

// FalseDUEAVF is the share of bit-cycles a parity-protected queue would
// flag although the bits could not affect the outcome: dead data plus
// predicated-false entries read at retire.
func (r *LSQReport) FalseDUEAVF() float64 { return r.frac(r.DeadDataBC + r.PredFalseBC) }

// DUEAVF is the parity-protected queue's total DUE AVF.
func (r *LSQReport) DUEAVF() float64 { return r.SDCAVF() + r.FalseDUEAVF() }

// IdleFraction is the unoccupied share of the queue.
func (r *LSQReport) IdleFraction() float64 { return r.frac(r.IdleBC) }

func (r *LSQReport) frac(bc uint64) float64 {
	total := r.TotalBC()
	if total == 0 {
		return 0
	}
	return float64(bc) / float64(total)
}

// TAGEReport is the closed-form vulnerability analysis of the TAGE
// predictor tables. A strike on predictor state can only change a
// prediction — a performance event, never an architectural one — so its
// SDC AVF is structurally zero. Under parity, every lookup flags any
// strike accumulated in the touched entries since their previous read,
// all of it a false DUE: the pipeline records that exposure integral
// (Stats.TAGEReadCycles) and the report closes the division.
type TAGEReport struct {
	Cycles       uint64
	Tables       int
	TableEntries int
	// ReadCycles is the integral of entry-cycles between consecutive reads
	// of the same entry, summed over every table lookup of the run.
	ReadCycles uint64
}

// AnalyzeTAGE builds the report from a recorded trace.
func AnalyzeTAGE(tr *pipeline.Trace) *TAGEReport {
	return &TAGEReport{
		Cycles:       tr.Cycles,
		Tables:       tr.TAGETables,
		TableEntries: tr.TAGETableEntries,
		ReadCycles:   tr.TAGEReadCycles,
	}
}

// TotalBC returns the tables' bit-cycle capacity.
func (r *TAGEReport) TotalBC() uint64 {
	return r.Cycles * uint64(r.Tables) * uint64(r.TableEntries) * TAGEEntryBits
}

// SDCAVF is zero: predictor state never affects architectural correctness.
func (r *TAGEReport) SDCAVF() float64 { return 0 }

// FalseDUEAVF is the read-exposed share of the tables under parity. Each
// lookup exposes the full entry, so the entry-cycle integral scales by the
// entry width in both numerator and denominator and cancels.
func (r *TAGEReport) FalseDUEAVF() float64 {
	total := r.Cycles * uint64(r.Tables) * uint64(r.TableEntries)
	if total == 0 {
		return 0
	}
	f := float64(r.ReadCycles) / float64(total)
	if f > 1 {
		return 1
	}
	return f
}

// DUEAVF is the parity-protected tables' total DUE AVF — entirely false.
func (r *TAGEReport) DUEAVF() float64 { return r.FalseDUEAVF() }
