package pipeline

import (
	"cmp"
	"slices"

	"softerror/internal/isa"
)

// Residency records one occupancy of one instruction-queue entry: the
// interval during which a particular dynamic instruction's bits sat in the
// IQ. The ace package integrates these intervals into architectural
// vulnerability factors.
type Residency struct {
	Inst isa.Inst

	// Enq is the cycle the instruction entered the IQ. Evict is the cycle
	// it left (by post-issue eviction, squash, or wrong-path flush); the
	// occupied interval is [Enq, Evict).
	Enq   uint64
	Evict uint64

	// Issued reports whether this copy was read by the issue stage; Issue
	// is the cycle it was read. A parity check happens exactly at that
	// read, so only issued residencies can raise a DUE. The interval
	// (Issue, Evict) of an issued entry is Ex-ACE: the entry was issued
	// for the last time but not yet evicted.
	Issued bool
	Issue  uint64

	// Squashed marks a copy removed without ever being read: by an
	// exposure-reduction squash (correct-path copies, which are refetched
	// later under the same Seq) or by a wrong-path flush. A fault in such
	// a copy is never read and therefore benign (outcome 1 in Figure 1).
	Squashed bool
}

// Occupancy returns the number of cycles this residency occupied its entry.
func (r *Residency) Occupancy() uint64 {
	if r.Evict < r.Enq {
		return 0
	}
	return r.Evict - r.Enq
}

// LogPositions resolves each residency to its instruction's position in a
// program-order commit log (ascending Seq), or -1 when the instruction
// never reached the log: a wrong-path copy, or one issued after the log
// ended. Residencies arrive in near program order, so the position after
// the last one resolved is tried first; a miss (an out-of-order retire, a
// refetched copy) falls back to a binary search.
func LogPositions(res []Residency, log []isa.Inst) []int32 {
	pos := make([]int32, len(res))
	next := 0 // log position after the last one resolved
	for i := range res {
		pos[i] = -1
		in := &res[i].Inst
		if in.WrongPath {
			continue
		}
		p, ok := next, next < len(log) && log[next].Seq == in.Seq
		if !ok {
			p, ok = slices.BinarySearchFunc(log, in.Seq, func(c isa.Inst, seq uint64) int {
				return cmp.Compare(c.Seq, seq)
			})
		}
		if ok {
			pos[i] = int32(p)
			next = p + 1
		}
	}
	return pos
}

// Trace is the full record of one simulation: everything the AVF analysis,
// the false-DUE mechanisms, and the performance metrics need.
type Trace struct {
	// Stats holds the run's scalar counters: cycles, commits, exposure
	// actions, loads by servicing level, forwarded loads, fetch stalls and
	// the TAGE read exposure.
	Stats

	// IQSize echoes the configured queue size.
	IQSize int

	// Residencies lists every IQ occupancy interval, in eviction order.
	Residencies []Residency
	// FrontEnd lists every fetch-buffer occupancy interval: Enq is the
	// fetch cycle, Evict the delivery-to-decode or flush cycle; Issued
	// marks delivered (read) entries. FrontEndCap is the buffer's
	// capacity in instructions. Together they support the paper's §4.2
	// discussion of π bits on fetch chunks.
	FrontEnd    []Residency
	FrontEndCap int
	// StoreBuffer lists every store-buffer occupancy: Enq is the store's
	// issue cycle, Evict its drain-to-cache cycle; every drained entry is
	// "read" (its value is committed to memory). StoreBufferCap is the
	// buffer's entry count.
	StoreBuffer    []Residency
	StoreBufferCap int
	// ROB and LSQ list the out-of-order family's reorder-buffer and
	// load/store-queue occupancy intervals (empty for the in-order
	// family). A ROB entry's read point is its in-order retire; an LSQ
	// entry's is its retire (loads, predicated-false stores) or its
	// drain to the cache (executed stores). ROBCap and LSQCap echo the
	// normalized configuration.
	ROB    []Residency
	ROBCap int
	LSQ    []Residency
	LSQCap int
	// TAGETables and TAGETableEntries echo the normalized TAGE geometry;
	// ace.AnalyzeTAGE turns them and Stats.TAGEReadCycles into a
	// closed-form report.
	TAGETables       int
	TAGETableEntries int
	// CommitLog lists committed instructions in program (issue) order; the
	// deadness analysis and the PET-buffer model consume it.
	CommitLog []isa.Inst
	// CommitCycles holds the cycle at which each CommitLog entry issued,
	// index-parallel to CommitLog; the register-file AVF analysis uses it
	// to integrate value lifetimes over time.
	CommitCycles []uint64
}
