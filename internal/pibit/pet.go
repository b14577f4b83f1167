// Package pibit implements the paper's false-DUE tracking hardware: the π
// (possibly incorrect) bit carried by instructions from detection to the
// point where the hardware can prove the error harmless, the anti-π bit on
// neutral instruction types, the Post-commit Error Tracking (PET) buffer,
// and the π-bit extensions to the register file, store buffer, caches and
// memory (§4 of the paper).
//
// The mechanisms are driven by the committed instruction stream, so a
// fault-injection campaign exercises the same decisions the hardware would
// make: set π instead of raising a machine check, propagate it along
// dataflow, and signal only when a possibly-incorrect value could reach
// architectural output. The engine decides PET-level faults with the scan
// the buffer performs at eviction; PETBuffer is the structure itself, and
// the tests pin the two against each other.
package pibit

import (
	"fmt"

	"softerror/internal/isa"
)

// petEntry is one logged instruction in the PET buffer.
type petEntry struct {
	inst isa.Inst
	pi   bool
}

// PETBuffer is the Post-commit Error Tracking buffer: a FIFO log of retired
// instructions with their π bits. When an entry with a set π bit is evicted,
// the buffer is scanned to prove the instruction first-level dynamically
// dead — its destination overwritten by a younger logged instruction with no
// intervening read. Proven-dead evictions suppress the error; everything
// else must signal (§4.3.3, design 1).
type PETBuffer struct {
	entries []petEntry
	head    int // index of the oldest entry
	count   int

	signalled uint64
	suppress  uint64
}

// NewPETBuffer returns a PET buffer with the given number of entries.
func NewPETBuffer(entries int) *PETBuffer {
	if entries < 1 {
		panic(fmt.Sprintf("pibit: PET buffer size %d, want >= 1", entries))
	}
	return &PETBuffer{entries: make([]petEntry, 0, entries)}
}

// Size returns the buffer's capacity in entries.
func (b *PETBuffer) Size() int { return cap(b.entries) }

// Len returns the number of instructions currently logged.
func (b *PETBuffer) Len() int { return b.count }

// Signalled and Suppressed return campaign counters: errors raised at
// eviction versus errors proven false and dropped.
func (b *PETBuffer) Signalled() uint64 { return b.signalled }

// Suppressed returns the number of π evictions proven harmless.
func (b *PETBuffer) Suppressed() uint64 { return b.suppress }

// Push logs a retired instruction with its π bit. If the buffer is full the
// oldest instruction is evicted first; when that evictee carries a set π
// bit, Push reports whether an error must be signalled for it (signal=true)
// and on which instruction (evictSeq). A false return with ok=true means
// the eviction proved the error false.
func (b *PETBuffer) Push(in isa.Inst, pi bool) (signal bool, evictSeq uint64, evicted bool) {
	if b.count == cap(b.entries) {
		old := b.entries[:cap(b.entries)][b.head]
		b.entries[:cap(b.entries)][b.head] = petEntry{inst: in, pi: pi}
		b.head = (b.head + 1) % cap(b.entries)
		if old.pi {
			if b.provesDead(&old.inst) {
				b.suppress++
				return false, old.inst.Seq, true
			}
			b.signalled++
			return true, old.inst.Seq, true
		}
		return false, old.inst.Seq, true
	}
	b.entries = append(b.entries, petEntry{inst: in, pi: pi})
	b.count++
	if b.count == cap(b.entries) {
		b.head = 0
	}
	return false, 0, false
}

// Drain evicts every remaining entry in order, reporting the sequence
// numbers of entries whose π bit must be signalled: at drain time nothing
// younger can prove them dead beyond what the log already holds.
func (b *PETBuffer) Drain() (signalSeqs []uint64) {
	for i := 0; i < b.count; i++ {
		idx := (b.head + i) % cap(b.entries)
		e := &b.entries[:cap(b.entries)][idx]
		if !e.pi {
			continue
		}
		if b.provesDeadFrom(&e.inst, i+1) {
			b.suppress++
			continue
		}
		b.signalled++
		signalSeqs = append(signalSeqs, e.inst.Seq)
	}
	b.entries = b.entries[:0]
	b.head, b.count = 0, 0
	return signalSeqs
}

// provesDead scans the whole (post-eviction) buffer contents — all younger
// than old — for an overwrite of old's destination with no intervening read.
func (b *PETBuffer) provesDead(old *isa.Inst) bool {
	return b.scan(old, 0, b.count)
}

// provesDeadFrom scans entries starting at logical offset from.
func (b *PETBuffer) provesDeadFrom(old *isa.Inst, from int) bool {
	return b.scan(old, from, b.count)
}

func (b *PETBuffer) scan(old *isa.Inst, from, to int) bool {
	if !old.HasDest() {
		return false // nothing to prove for stores, branches, no-dest ops
	}
	dest := old.Dest
	for i := from; i < to; i++ {
		idx := (b.head + i) % cap(b.entries)
		in := &b.entries[:cap(b.entries)][idx].inst
		if readsReg(in, dest) {
			return false // intervening read: possibly consumed
		}
		if in.HasDest() && in.Dest == dest {
			return true // overwritten without read: proven FDD
		}
	}
	return false // no overwriter logged: cannot prove
}

// readsReg reports whether the instruction architecturally reads r. A
// predicated-false instruction reads only its guard; neutral instructions
// read nothing that matters.
func readsReg(in *isa.Inst, r isa.Reg) bool {
	if in.Class.Neutral() {
		return false
	}
	if in.PredGuard == r {
		return true
	}
	if in.PredFalse {
		return false
	}
	return in.Src1 == r || in.Src2 == r
}
