package pipeline

import (
	"fmt"

	"softerror/internal/isa"
)

// This file is the lane mirror of ooo.go: the out-of-order family's
// structures in compact (ref, seq) form, phase-identical to the reference
// interpreter so a lane's event stream and statistics stay byte-identical
// to a reference run of the same configuration. Entry content is read
// back through the BatchSource exactly where the reference interpreter
// reads its inlined isa.Inst copies.

// brobEntry is one compact reorder-buffer slot.
type brobEntry struct {
	enq        uint64
	completeAt uint64 // 0 until issued; earliest cycle the entry may retire
	seq        uint64
	ticket     uint64 // the lane's dispatch count at dispatch; its IQ twin carries it
	ref        BatchRef
	mem        bool // has an LSQ twin to settle at retire
}

// blsqEntry is one compact load/store-queue slot.
type blsqEntry struct {
	addr    uint64
	enq     uint64
	drainAt uint64 // nonzero once a retired store is scheduled to drain
	seq     uint64
	ref     BatchRef
	store   bool // correct-path non-predicated-false store: drains at retire
	live    bool // executed store currently claiming the forwarding window
}

// BatchOOOSink is the compact counterpart of OOOSink: the out-of-order
// structures' events with the (ref, seq) pair instead of a materialised
// instruction. Every interval's read point coincides with its eviction
// (retire or drain), so evict carries both; read=false marks copies
// flushed, squashed or clipped without a read.
type BatchOOOSink interface {
	BatchROB(ref BatchRef, seq, enq, evict uint64, read bool)
	BatchLSQ(ref BatchRef, seq, enq, evict uint64, read bool)
}

// feContent returns the instruction content behind a front-end entry: the
// memoised body for correct-path fetches, the source's wrong-path draw
// otherwise.
func (ln *batchLane) feContent(fe *bfeEntry) isa.Inst {
	if fe.in != nil {
		return *fe.in
	}
	return ln.src.Wrong(int(fe.seq) - fe.ref.Body())
}

// lanePC reconstructs the lane-relabeled PC the reference interpreter
// would hold for this fetch — the TAGE hash input (see BatchRef.Inst).
// A wrong-path PC comes from the source's WrongSite: a private stream has
// not generated body n yet, and reading it here would break fetch order.
func (ln *batchLane) lanePC(in *isa.Inst, fe *bfeEntry) uint64 {
	n := fe.ref.Body()
	d := fe.seq - uint64(n)
	if fe.ref.Wrong() {
		pc, _ := ln.src.WrongSite(n, int(d))
		return pc
	}
	return in.PC + 4*d
}

// oooDispatch mirrors Pipeline.oooDispatch, stamping the ROB entry with a
// fresh dispatch ticket, which it returns for the IQ twin to carry. A
// refetched instruction dispatches again and so gets a new ticket.
func (ln *batchLane) oooDispatch(in *isa.Inst, fe *bfeEntry, now uint64) uint64 {
	mem := in.Class == isa.ClassLoad || in.Class == isa.ClassStore
	ln.tickets++
	ln.rob.push(brobEntry{enq: now, seq: fe.seq, ticket: ln.tickets, ref: fe.ref, mem: mem})
	if mem {
		ln.lsq.push(blsqEntry{
			addr: in.Addr, enq: now, seq: fe.seq, ref: fe.ref,
			store: in.Class == isa.ClassStore && !fe.ref.Wrong() && !in.PredFalse,
		})
	}
	if in.Class.IsControl() {
		ln.stats.TAGEReadCycles += ln.tage.touch(ln.lanePC(in, fe), now)
		ln.tage.note(in.Taken)
	}
	return ln.tickets
}

// robComplete mirrors Pipeline.robComplete, finding the issuing entry's ROB
// twin by its dispatch ticket instead of a seq scan. The ring holds entries
// in dispatch order and every removal (retire, flush, squash) keeps that
// order, so tickets ascend from the head and a binary search finds the
// twin. Tickets are consecutive, so the twin sits at most ticket-head
// slots in, and exactly there unless a flush or squash removed entries in
// between: that slot is probed first and bounds the search. An issued
// entry always has a twin: the IQ and ROB drop unissued entries together.
func (ln *batchLane) robComplete(ticket, done uint64) {
	lo, hi := 0, ln.rob.n
	if g := ticket - ln.rob.at(0).ticket; g < uint64(hi) {
		if e := ln.rob.at(int(g)); e.ticket == ticket {
			e.completeAt = done
			return
		}
		hi = int(g)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ln.rob.at(mid).ticket < ticket {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == ln.rob.n || ln.rob.at(lo).ticket != ticket {
		panic(fmt.Sprintf("pipeline: batch lane: issued entry (ticket %d) has no ROB twin", ticket))
	}
	ln.rob.at(lo).completeAt = done
}

// retire mirrors Pipeline.retire.
func (ln *batchLane) retire(now uint64) {
	n := 0
	for n < ln.rob.n && n < ln.cfg.RetireWidth {
		e := ln.rob.at(n)
		if e.completeAt == 0 || now < e.completeAt {
			break
		}
		read := !e.ref.Wrong()
		ln.recordROB(e, now, read)
		if e.mem {
			ln.lsqRetire(e.seq, now, read)
		}
		n++
	}
	if n > 0 {
		ln.rob.pop(n)
	}
}

// lsqRetire mirrors Pipeline.lsqRetire. The store flag pre-encodes the
// reference interpreter's "executed correct-path store" test.
func (ln *batchLane) lsqRetire(seq, now uint64, read bool) {
	for i := 0; i < ln.lsq.n; i++ {
		e := ln.lsq.at(i)
		if e.seq != seq {
			continue
		}
		if read && e.store {
			e.drainAt = now + uint64(ln.cfg.StoreDrainLatency)
			return
		}
		ln.recordLSQ(e, now, read)
		ln.lsqRemove(i)
		return
	}
}

// drainLSQ mirrors Pipeline.drainLSQ.
func (ln *batchLane) drainLSQ(now uint64) {
	if ln.lsq.n == 0 {
		return
	}
	e := ln.lsq.at(0)
	if e.drainAt == 0 || now < e.drainAt {
		return
	}
	ln.mem.Access(e.addr, true)
	ln.recordLSQ(e, now, true)
	ln.lsq.pop(1)
}

// oooFlushWrong mirrors Pipeline.oooFlushWrong.
func (ln *batchLane) oooFlushWrong(now uint64) {
	kept := 0
	for i := 0; i < ln.rob.n; i++ {
		e := ln.rob.at(i)
		if e.ref.Wrong() {
			ln.recordROB(e, now, false)
			continue
		}
		if kept != i {
			*ln.rob.at(kept) = *e
		}
		kept++
	}
	ln.rob.n = kept
	kept = 0
	for i := 0; i < ln.lsq.n; i++ {
		e := ln.lsq.at(i)
		if e.ref.Wrong() {
			ln.recordLSQ(e, now, false)
			continue
		}
		if kept != i {
			*ln.lsq.at(kept) = *e
		}
		kept++
	}
	ln.lsq.n = kept
}

// oooSquash mirrors Pipeline.oooSquash.
func (ln *batchLane) oooSquash(now uint64, ev squashEvent) {
	kept := 0
	for i := 0; i < ln.rob.n; i++ {
		e := ln.rob.at(i)
		if e.completeAt != 0 || e.seq <= ev.loadSeq {
			if kept != i {
				*ln.rob.at(kept) = *e
			}
			kept++
			continue
		}
		ln.recordROB(e, now, false)
		if e.mem {
			ln.lsqRemoveSeq(e.seq, now)
		}
	}
	ln.rob.n = kept
}

// lsqRemoveSeq mirrors Pipeline.lsqRemove.
func (ln *batchLane) lsqRemoveSeq(seq, now uint64) {
	for i := 0; i < ln.lsq.n; i++ {
		if e := ln.lsq.at(i); e.seq == seq {
			ln.recordLSQ(e, now, false)
			ln.lsqRemove(i)
			return
		}
	}
}

// lsqRemove closes the ring over the removed slot i, preserving order.
func (ln *batchLane) lsqRemove(i int) {
	for j := i + 1; j < ln.lsq.n; j++ {
		*ln.lsq.at(j - 1) = *ln.lsq.at(j)
	}
	ln.lsq.n--
}

// oooFlushEnd mirrors Pipeline.oooFlushEnd.
func (ln *batchLane) oooFlushEnd(cycle uint64) {
	for i := 0; i < ln.rob.n; i++ {
		ln.recordROB(ln.rob.at(i), cycle, false)
	}
	for i := 0; i < ln.lsq.n; i++ {
		e := ln.lsq.at(i)
		ln.recordLSQ(e, cycle, e.drainAt != 0)
	}
}

// oooEventCycle folds the out-of-order structures' horizon candidates:
// the head ROB entry's retire and the head LSQ store's drain. Unissued
// heads are covered by the IQ issue scan (every unissued ROB entry has an
// IQ twin), and dispatch admission unblocks only through these events.
func (ln *batchLane) oooEventCycle(horizon uint64) uint64 {
	if ln.rob.n > 0 {
		if at := ln.rob.at(0).completeAt; at != 0 && at < horizon {
			horizon = at
		}
	}
	if ln.lsq.n > 0 {
		if at := ln.lsq.at(0).drainAt; at != 0 && at < horizon {
			horizon = at
		}
	}
	return horizon
}

// lsqClaim opens the forwarding window of the store that just executed.
func (ln *batchLane) lsqClaim(seq uint64) {
	for i := 0; i < ln.lsq.n; i++ {
		if e := ln.lsq.at(i); e.seq == seq {
			e.live = true
			return
		}
	}
}

func (ln *batchLane) recordROB(e *brobEntry, evict uint64, read bool) {
	if ln.oooSink == nil {
		return
	}
	ln.oooSink.BatchROB(e.ref, e.seq, e.enq, evict, read)
}

func (ln *batchLane) recordLSQ(e *blsqEntry, evict uint64, read bool) {
	if ln.oooSink == nil {
		return
	}
	ln.oooSink.BatchLSQ(e.ref, e.seq, e.enq, evict, read)
}
