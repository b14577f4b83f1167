package ace

import "softerror/internal/pipeline"

// Store-buffer entry layout: the value being written and its target
// address. Unlike instruction-queue entries, every drained entry is
// consumed (written to memory), so there is no Ex-ACE state; the
// vulnerability question is only whether the write matters.
const (
	// SBDataBits is the width of the buffered store data.
	SBDataBits = 64
	// SBAddrBits is the width of the buffered physical address.
	SBAddrBits = 44
	// SBEntryBits is the payload width of one store-buffer entry.
	SBEntryBits = SBDataBits + SBAddrBits
)

// SBReport is the vulnerability analysis of the store buffer.
//
// For a live store the whole entry is ACE. For a dynamically dead store
// (its memory value overwritten before any load) the data bits are un-ACE
// — exactly the faults π-bits-through-memory cover — but the address bits
// remain ACE: corrupting them redirects the dead write onto a live
// location.
type SBReport struct {
	Cycles  uint64
	Entries int

	ACEBC      uint64
	DeadDataBC uint64
	IdleBC     uint64
}

// AnalyzeStoreBuffer integrates the store buffer's residency intervals.
func AnalyzeStoreBuffer(tr *pipeline.Trace, dead *Deadness) *SBReport {
	r := &SBReport{Cycles: tr.Cycles, Entries: tr.StoreBufferCap}
	pos := pipeline.LogPositions(tr.StoreBuffer, tr.CommitLog)
	for i := range tr.StoreBuffer {
		res := &tr.StoreBuffer[i]
		occ := res.Occupancy()
		if occ == 0 {
			continue
		}
		r.add(occ, dead.ofResidency(&res.Inst, pos[i]))
	}
	r.finalize()
	return r
}

// add charges one drained store's occupancy under its deadness category —
// the shared classification point of the trace and streaming analyses.
func (r *SBReport) add(occ uint64, cat Category) {
	switch cat {
	case CatFDDMem, CatTDDMem:
		r.ACEBC += occ * SBAddrBits
		r.DeadDataBC += occ * SBDataBits
	default:
		r.ACEBC += occ * SBEntryBits
	}
}

// finalize computes the idle remainder.
func (r *SBReport) finalize() {
	total := r.TotalBC()
	used := r.ACEBC + r.DeadDataBC
	if used > total {
		used = total
	}
	r.IdleBC = total - used
}

// TotalBC returns the buffer's bit-cycle capacity.
func (r *SBReport) TotalBC() uint64 {
	return r.Cycles * uint64(r.Entries) * SBEntryBits
}

// SDCAVF is the unprotected store buffer's vulnerability.
func (r *SBReport) SDCAVF() float64 { return r.frac(r.ACEBC) }

// FalseDUEAVF is the share of bit-cycles a parity-protected buffer would
// flag although the data was dynamically dead.
func (r *SBReport) FalseDUEAVF() float64 { return r.frac(r.DeadDataBC) }

// DUEAVF is the parity-protected buffer's total DUE AVF.
func (r *SBReport) DUEAVF() float64 { return r.SDCAVF() + r.FalseDUEAVF() }

// IdleFraction is the unoccupied share of the buffer.
func (r *SBReport) IdleFraction() float64 { return r.frac(r.IdleBC) }

func (r *SBReport) frac(bc uint64) float64 {
	total := r.TotalBC()
	if total == 0 {
		return 0
	}
	return float64(bc) / float64(total)
}
