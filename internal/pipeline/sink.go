package pipeline

import (
	"sort"

	"softerror/internal/isa"
)

// Sink receives the pipeline's observable events as they happen, instead of
// having them materialised into Trace slices. The pipeline calls a method
// exactly when the corresponding Trace record would have been appended, in
// the same order, with the same contents — so a sink sees precisely the
// stream a recorded Trace would hold, one interval at a time.
//
// A Sink joins a lane through LiftSink. Consumers that only fold the
// stream into counters (the ACE/AVF integrals) implement the compact
// BatchSink instead and skip both reconstruction and the O(commits)
// slices; TraceRecorder is the Sink that reconstructs the Trace for
// callers that still want materialised intervals (the trace oracles and
// core.Config.KeepTrace).
type Sink interface {
	// OnResidency reports one closed instruction-queue occupancy interval
	// (eviction, squash, wrong-path flush, or end-of-run clip).
	OnResidency(r Residency)
	// OnFrontEnd reports one closed fetch-buffer occupancy interval.
	// Issued marks delivery to decode (the front end's read point);
	// Squashed marks removal without delivery.
	OnFrontEnd(r Residency)
	// OnStoreBuffer reports one closed store-buffer occupancy interval
	// (drain to cache, or end-of-run clip).
	OnStoreBuffer(r Residency)
	// OnCommit reports one committed (issued correct-path) instruction,
	// with the cycle its IQ copy enqueued and the cycle it issued. The
	// pre-issue wait issue-enq is the committed copy's read exposure; the
	// same copy's OnResidency arrives later, when the entry evicts.
	OnCommit(in isa.Inst, enq, issue uint64)
}

// OOOSink is the optional extension a Sink implements to receive the
// out-of-order family's extra structures. The engines type-assert once at
// run start; a plain Sink on an out-of-order run simply misses these
// events. Both events reuse Residency with the structure's own read point:
// a ROB entry is read at its in-order retire, an LSQ entry at its retire
// (loads, predicated-false stores) or its drain to the cache (executed
// stores) — so Issue == Evict for every read interval, and Issued=false
// marks copies flushed, squashed or clipped without a read.
type OOOSink interface {
	// OnROB reports one closed reorder-buffer occupancy interval.
	OnROB(r Residency)
	// OnLSQ reports one closed load/store-queue occupancy interval.
	OnLSQ(r Residency)
}

// Stats holds the scalar counters of one run — everything a Trace records
// besides its interval slices and echoed capacities; Trace embeds it. RunBatchStreamArena returns one per lane,
// so streaming consumers get IPC, miss rates and event counts without a
// Trace.
type Stats struct {
	// Cycles is the number of cycles simulated.
	Cycles uint64
	// Commits is the number of correct-path instructions committed
	// (including no-ops and predicated-false instructions, matching the
	// paper's instruction counting).
	Commits uint64
	// MaxSeq is the largest instruction sequence number observed.
	MaxSeq uint64

	// Exposure-action accounting.
	Squashes        uint64 // squash events fired
	SquashedEntries uint64 // IQ and front-end entries removed by squashes
	Refetches       uint64 // squashed correct-path instructions refetched
	ThrottleEvents  uint64
	WrongFlushes    uint64 // entries removed by branch-resolution flushes
	ForwardedLoads  uint64 // loads serviced by store-to-load forwarding

	// LoadsByLevel counts correct-path loads by servicing level
	// (cache.LevelL0..LevelMemory).
	LoadsByLevel [4]uint64

	// FetchStallCycles counts cycles fetch was blocked by squash/throttle
	// stalls (not by IQ backpressure).
	FetchStallCycles uint64

	// TAGEReadCycles integrates the out-of-order family's predictor-table
	// read exposure: entry-cycles since last read, summed over every
	// lookup (0 for the in-order family).
	TAGEReadCycles uint64
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Commits) / float64(s.Cycles)
}

// LoadMissRate returns the fraction of loads serviced beyond the given
// cache level.
func (s *Stats) LoadMissRate(level int) float64 {
	var total, beyond uint64
	for l, n := range s.LoadsByLevel {
		total += n
		if l > level {
			beyond += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(beyond) / float64(total)
}

// TraceRecorder is the Sink that materialises the event stream back into a
// Trace, byte-identical to what the pipeline historically recorded.
type TraceRecorder struct {
	outOfOrder bool
	tr         Trace
}

// NewTraceRecorder builds a recorder for a run under cfg. commits pre-sizes
// the commit log (pass 0 when unknown).
func NewTraceRecorder(cfg Config, commits uint64) *TraceRecorder {
	rec := &TraceRecorder{outOfOrder: cfg.OutOfOrder}
	rec.tr.IQSize = cfg.IQSize
	rec.tr.FrontEndCap = cfg.FrontEndCap()
	rec.tr.StoreBufferCap = cfg.StoreBufferSize
	if cfg.OutOfOrder {
		n := cfg.Normalized()
		rec.tr.ROBCap = n.ROBSize
		rec.tr.LSQCap = n.LSQSize
		rec.tr.TAGETables = n.TAGETables
		rec.tr.TAGETableEntries = 1 << n.TAGETableBits
	}
	if commits > 0 {
		rec.tr.CommitLog = make([]isa.Inst, 0, commits)
		rec.tr.CommitCycles = make([]uint64, 0, commits)
	}
	return rec
}

// OnResidency implements Sink.
func (rec *TraceRecorder) OnResidency(r Residency) {
	rec.tr.Residencies = append(rec.tr.Residencies, r)
}

// OnFrontEnd implements Sink.
func (rec *TraceRecorder) OnFrontEnd(r Residency) {
	rec.tr.FrontEnd = append(rec.tr.FrontEnd, r)
}

// OnStoreBuffer implements Sink.
func (rec *TraceRecorder) OnStoreBuffer(r Residency) {
	rec.tr.StoreBuffer = append(rec.tr.StoreBuffer, r)
}

// OnCommit implements Sink.
func (rec *TraceRecorder) OnCommit(in isa.Inst, _, issue uint64) {
	rec.tr.CommitLog = append(rec.tr.CommitLog, in)
	rec.tr.CommitCycles = append(rec.tr.CommitCycles, issue)
}

// OnROB implements OOOSink.
func (rec *TraceRecorder) OnROB(r Residency) {
	rec.tr.ROB = append(rec.tr.ROB, r)
}

// OnLSQ implements OOOSink.
func (rec *TraceRecorder) OnLSQ(r Residency) {
	rec.tr.LSQ = append(rec.tr.LSQ, r)
}

// Trace finalises and returns the materialised trace: counters copied from
// the run's Stats, and — under out-of-order issue, which appends commits in
// dataflow order — the commit log restored to program order, which the
// unique sequence numbers make exact.
func (rec *TraceRecorder) Trace(st Stats) *Trace {
	tr := &rec.tr
	tr.Stats = st
	if rec.outOfOrder {
		log, cycles := tr.CommitLog, tr.CommitCycles
		order := make([]int, len(log))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return log[order[a]].Seq < log[order[b]].Seq })
		sortedLog := make([]isa.Inst, len(log))
		sortedCycles := make([]uint64, len(cycles))
		for i, j := range order {
			sortedLog[i] = log[j]
			sortedCycles[i] = cycles[j]
		}
		tr.CommitLog, tr.CommitCycles = sortedLog, sortedCycles
	}
	return tr
}

// Tee fans the event stream out to several sinks, in argument order. Nil
// sinks are skipped; a campaign driver uses it to feed a trace recorder and
// a fault residency recorder from one run.
func Tee(sinks ...Sink) Sink {
	kept := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	return teeSink(kept)
}

type teeSink []Sink

func (t teeSink) OnResidency(r Residency) {
	for _, s := range t {
		s.OnResidency(r)
	}
}

func (t teeSink) OnFrontEnd(r Residency) {
	for _, s := range t {
		s.OnFrontEnd(r)
	}
}

func (t teeSink) OnStoreBuffer(r Residency) {
	for _, s := range t {
		s.OnStoreBuffer(r)
	}
}

func (t teeSink) OnCommit(in isa.Inst, enq, issue uint64) {
	for _, s := range t {
		s.OnCommit(in, enq, issue)
	}
}

// OnROB implements OOOSink, forwarding to the members that accept it.
func (t teeSink) OnROB(r Residency) {
	for _, s := range t {
		if os, ok := s.(OOOSink); ok {
			os.OnROB(r)
		}
	}
}

// OnLSQ implements OOOSink, forwarding to the members that accept it.
func (t teeSink) OnLSQ(r Residency) {
	for _, s := range t {
		if os, ok := s.(OOOSink); ok {
			os.OnLSQ(r)
		}
	}
}
