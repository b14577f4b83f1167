package pipeline

import "softerror/internal/isa"

// This file is the out-of-order core family: the structures and phases
// that exist only when Config.OutOfOrder is set. The family follows the
// engine's composable-structure protocol — every vulnerable structure
// supplies (a) a dispatch/admission hook (admits in rules.go, then
// oooDispatch), (b) occupancy intervals through a per-structure sink
// method with a defined read point (OOOSink.OnROB/OnLSQ), (c) the cycle of
// its next state change — the head ROB entry's retire, the head LSQ
// store's drain — which the lane engine folds into its event horizon
// (batchLane.oooEventCycle; this reference interpreter single-steps and
// needs none), and (d) flush, squash and end-of-run clip rules mirroring
// the instruction queue's. The in-order family never reaches this code:
// every hook is gated on p.ooo, and the shared execute branches on the
// family only for the ROB completion mark and store routing (an LSQ claim
// instead of a store-buffer entry).
//
// The three structures:
//
//   - Reorder buffer: every delivered instruction allocates an entry at
//     dispatch and retires in dispatch order, at most RetireWidth per
//     cycle, once its completion cycle passes. Retire is the read point
//     (the entry's payload updates architectural state). Wrong-path
//     entries are flushed unread at branch resolution; if their resolving
//     branch was itself squashed out of the ROB they drain unread from
//     the head instead, so the buffer can never wedge.
//   - Load/store queue: memory operations hold an entry from dispatch.
//     Loads and predicated-false stores are read and released at retire;
//     executed stores drain to the cache in order, at most one per cycle,
//     StoreDrainLatency cycles after retiring (drain-at-retire), and
//     younger loads forward from matching queued stores for that whole
//     window. Loads leave at retire, so draining stores always form the
//     queue's oldest prefix and head-only draining preserves store order.
//   - TAGE predictor: TAGETables tagged tables of 1<<TAGETableBits
//     entries, indexed by PC hashed with geometrically growing folds of
//     the global history. Every delivered control-class instruction —
//     correct or wrong path — reads one entry per table and shifts its
//     direction into the history. The read-exposure integral
//     (entry-cycles since each touched entry's previous read) accumulates
//     in Stats.TAGEReadCycles; ace.AnalyzeTAGE closes the form.

// robEntry is one reorder-buffer slot: allocated at dispatch, completed
// at issue (completeAt 0 until then), retired from the head in order.
type robEntry struct {
	inst       isa.Inst
	enq        uint64
	completeAt uint64 // 0 until issued; earliest cycle the entry may retire
	mem        bool   // has an LSQ twin to settle at retire
}

// lsqEntry is one load/store-queue slot: allocated at dispatch, released
// at retire (loads, predicated-false stores) or drained from the head
// (executed stores, drainAt nonzero once scheduled).
type lsqEntry struct {
	inst    isa.Inst
	enq     uint64
	drainAt uint64 // nonzero once a retired store is scheduled to drain
}

// tageState is the TAGE predictor's residency-tracking state: per-entry
// last-read cycles (flat, tables << tableBits) plus the global history.
// Prediction content (tags, counters) does not affect timing in this
// model — the workload stream pre-encodes mispredictions — so only the
// read schedule, which the AVF integral needs, is tracked.
type tageState struct {
	tables    int
	tableBits uint
	mask      uint64
	hist      uint64
	last      []uint64
}

// init arms the state over a last-read buffer of cfg.TAGETables <<
// cfg.TAGETableBits entries (cfg must be normalized; the buffer must be
// zeroed).
func (t *tageState) init(cfg *Config, last []uint64) {
	t.tables = cfg.TAGETables
	t.tableBits = uint(cfg.TAGETableBits)
	t.mask = 1<<t.tableBits - 1
	t.hist = 0
	t.last = last
}

// touch reads one prediction entry per table for a control-class fetch
// and returns the entry-cycles since each touched entry was last read —
// the read-exposure integrand. Table ti hashes the PC with ti*tableBits
// bits of global history XOR-folded to the index width (table 0 is the
// history-less bimodal base).
func (t *tageState) touch(pc, now uint64) uint64 {
	var rc uint64
	base := pc >> 2
	for ti := 0; ti < t.tables; ti++ {
		h := t.hist & (1<<(uint(ti)*t.tableBits) - 1)
		var fold uint64
		for h != 0 {
			fold ^= h & t.mask
			h >>= t.tableBits
		}
		slot := uint64(ti)<<t.tableBits | (base^fold)&t.mask
		rc += now - t.last[slot]
		t.last[slot] = now
	}
	return rc
}

// note shifts one branch outcome into the global history.
func (t *tageState) note(taken bool) {
	t.hist <<= 1
	if taken {
		t.hist |= 1
	}
}

// oooDispatch allocates the instruction's ROB entry (and LSQ entry for
// memory operations) and, for control-class instructions on either path,
// reads the TAGE tables and trains the global history.
func (p *Pipeline) oooDispatch(in *isa.Inst, now uint64) {
	mem := in.Class == isa.ClassLoad || in.Class == isa.ClassStore
	p.rob = append(p.rob, robEntry{inst: *in, enq: now, mem: mem})
	if mem {
		p.lsq = append(p.lsq, lsqEntry{inst: *in, enq: now})
	}
	if in.Class.IsControl() {
		p.stats.TAGEReadCycles += p.tage.touch(in.PC, now)
		p.tage.note(in.Taken)
	}
}

// robComplete marks the issuing instruction's ROB entry ready to retire
// at done. Unissued entries always have an IQ twin, so the entry exists;
// ROB order is dispatch order and issue favours old entries, so the scan
// from the head is short.
func (p *Pipeline) robComplete(seq, done uint64) {
	for i := range p.rob {
		if e := &p.rob[i]; e.completeAt == 0 && e.inst.Seq == seq {
			e.completeAt = done
			return
		}
	}
}

// retire pops completed entries from the ROB head, in dispatch order, up
// to RetireWidth per cycle. Retire is the ROB's read point. Wrong-path
// entries reaching the head (only possible when their resolving branch
// was itself squashed out of the ROB) drain unread. Retiring memory
// operations settle their LSQ twin.
func (p *Pipeline) retire(now uint64) {
	n := 0
	for n < len(p.rob) && n < p.cfg.RetireWidth {
		e := &p.rob[n]
		if e.completeAt == 0 || now < e.completeAt {
			break
		}
		read := !e.inst.WrongPath
		p.recordROB(e, now, read)
		if e.mem {
			p.lsqRetire(e.inst.Seq, now, read)
		}
		n++
	}
	if n > 0 {
		m := copy(p.rob, p.rob[n:])
		p.rob = p.rob[:m]
	}
}

// lsqRetire settles the LSQ entry of a retiring memory operation: loads
// and predicated-false stores are read at retire and released; executed
// correct-path stores stay queued and drain in order; wrong-path twins
// leave unread with their ROB entry.
func (p *Pipeline) lsqRetire(seq, now uint64, read bool) {
	for i := range p.lsq {
		e := &p.lsq[i]
		if e.inst.Seq != seq {
			continue
		}
		if read && e.inst.Class == isa.ClassStore && !e.inst.PredFalse {
			e.drainAt = now + uint64(p.cfg.StoreDrainLatency)
			return
		}
		p.recordLSQ(e, now, read)
		p.lsq = append(p.lsq[:i], p.lsq[i+1:]...)
		return
	}
}

// drainLSQ drains at most one executed store per cycle from the queue
// head to the cache — the store's read point — and releases its
// forwarding claim.
func (p *Pipeline) drainLSQ(now uint64) {
	if len(p.lsq) == 0 {
		return
	}
	e := &p.lsq[0]
	if e.drainAt == 0 || now < e.drainAt {
		return
	}
	p.mem.Access(e.inst.Addr, true)
	p.recordLSQ(e, now, true)
	p.releaseStore(e.inst.Addr)
	m := copy(p.lsq, p.lsq[1:])
	p.lsq = p.lsq[:m]
}

// oooFlushWrong removes wrong-path entries from the ROB and LSQ when the
// mispredicted branch resolves; none were read. Wrong-path stores never
// execute, so no forwarding claims are released here.
func (p *Pipeline) oooFlushWrong(now uint64) {
	kept := p.rob[:0]
	for i := range p.rob {
		e := &p.rob[i]
		if e.inst.WrongPath {
			p.recordROB(e, now, false)
			continue
		}
		kept = append(kept, *e)
	}
	p.rob = kept
	keptL := p.lsq[:0]
	for i := range p.lsq {
		e := &p.lsq[i]
		if e.inst.WrongPath {
			p.recordLSQ(e, now, false)
			continue
		}
		keptL = append(keptL, *e)
	}
	p.lsq = keptL
}

// oooSquash mirrors the IQ squash in the ROB and LSQ: unissued entries
// younger than the triggering load are removed unread (their IQ twins
// were just squashed, so they could never complete). Refetched victims
// re-enter both structures at dispatch.
func (p *Pipeline) oooSquash(now uint64, ev squashEvent) {
	kept := p.rob[:0]
	for i := range p.rob {
		e := &p.rob[i]
		if e.completeAt != 0 || e.inst.Seq <= ev.loadSeq {
			kept = append(kept, *e)
			continue
		}
		p.recordROB(e, now, false)
		if e.mem {
			p.lsqRemove(e.inst.Seq, now)
		}
	}
	p.rob = kept
}

// lsqRemove drops the unissued LSQ entry with the given seq (squash
// path); it was never read.
func (p *Pipeline) lsqRemove(seq, now uint64) {
	for i := range p.lsq {
		if p.lsq[i].inst.Seq == seq {
			p.recordLSQ(&p.lsq[i], now, false)
			p.lsq = append(p.lsq[:i], p.lsq[i+1:]...)
			return
		}
	}
}

// oooFlushEnd clips in-flight ROB and LSQ entries at the final cycle:
// unretired copies were never read; stores already scheduled to drain are
// charged as read at the clip, like the in-order store buffer.
func (p *Pipeline) oooFlushEnd(cycle uint64) {
	for i := range p.rob {
		p.recordROB(&p.rob[i], cycle, false)
	}
	for i := range p.lsq {
		e := &p.lsq[i]
		p.recordLSQ(e, cycle, e.drainAt != 0)
	}
}

// recordROB reports one reorder-buffer residency ending at evict; read
// marks an in-order retire (the read point is the retire cycle itself).
func (p *Pipeline) recordROB(e *robEntry, evict uint64, read bool) {
	if p.rec == nil {
		return
	}
	r := Residency{Inst: e.inst, Enq: e.enq, Evict: evict, Squashed: !read}
	if read {
		r.Issued = true
		r.Issue = evict
	}
	p.rec.OnROB(r)
}

// recordLSQ reports one load/store-queue residency ending at evict; read
// marks consumption (retire for loads and predicated-false stores, drain
// for executed stores).
func (p *Pipeline) recordLSQ(e *lsqEntry, evict uint64, read bool) {
	if p.rec == nil {
		return
	}
	r := Residency{Inst: e.inst, Enq: e.enq, Evict: evict, Squashed: !read}
	if read {
		r.Issued = true
		r.Issue = evict
	}
	p.rec.OnLSQ(r)
}
