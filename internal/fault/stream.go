package fault

import (
	"sort"
	"sync"

	"softerror/internal/ace"
	"softerror/internal/isa"
	"softerror/internal/pipeline"
)

// StreamRecorder is a pipeline.Sink that retains exactly what injection
// over the instruction queue needs — the IQ residency intervals and the
// committed stream — and nothing else. Campaign drivers pass it as a run's
// core.Config.Sink, so one run feeds both the streamed analytic AVFs and
// the Monte-Carlo injector without materialising a full trace (front-end
// and store-buffer intervals, commit cycles) that injection never samples.
type StreamRecorder struct {
	res []pipeline.Residency
	log []isa.Inst
}

// NewStreamRecorder builds a recorder; commits pre-sizes the commit log
// (pass 0 when unknown).
func NewStreamRecorder(commits uint64) *StreamRecorder {
	rec := &StreamRecorder{}
	rec.reset(commits)
	return rec
}

// recorderPool recycles recorder buffers across campaign runs: the IQ
// residency list and the commit log are the two large per-campaign
// allocations, and figure drivers run one campaign per roster benchmark.
var recorderPool = sync.Pool{New: func() any { return new(StreamRecorder) }}

// GetStreamRecorder is NewStreamRecorder drawing from a process-wide pool.
// Pair with Release once every Injector built over the recorder is done.
func GetStreamRecorder(commits uint64) *StreamRecorder {
	rec := recorderPool.Get().(*StreamRecorder)
	rec.reset(commits)
	return rec
}

// Release returns the recorder's buffers to the pool. The caller must be
// finished with the recorder AND with every Injector built from it — the
// injector aliases the recorded slices, it does not copy them.
func (rec *StreamRecorder) Release() {
	recorderPool.Put(rec)
}

func (rec *StreamRecorder) reset(commits uint64) {
	rec.res = rec.res[:0]
	rec.log = rec.log[:0]
	if commits > 0 && uint64(cap(rec.log)) < commits {
		rec.log = make([]isa.Inst, 0, commits)
	}
}

// OnResidency implements pipeline.Sink.
func (rec *StreamRecorder) OnResidency(r pipeline.Residency) {
	rec.res = append(rec.res, r)
}

// OnFrontEnd implements pipeline.Sink (ignored: IQ injection only).
func (rec *StreamRecorder) OnFrontEnd(pipeline.Residency) {}

// OnStoreBuffer implements pipeline.Sink (ignored: IQ injection only).
func (rec *StreamRecorder) OnStoreBuffer(pipeline.Residency) {}

// OnCommit implements pipeline.Sink.
func (rec *StreamRecorder) OnCommit(in isa.Inst, _, _ uint64) {
	rec.log = append(rec.log, in)
}

// Injector builds the structure injector over the recorded stream, exactly
// as NewInjector would over a recorded trace: same residency order, same
// program-order commit log. cycles and entries come from the run's stats
// and configuration (Stats.Cycles, Config.IQSize).
func (rec *StreamRecorder) Injector(cycles uint64, entries int, dead *ace.Deadness) *Injector {
	sortLogBySeq(rec.log)
	return NewStructureInjector(rec.res, cycles, entries, rec.log, dead)
}

// sortLogBySeq restores program order (ascending unique Seq) to a commit
// log appended in dataflow order by an out-of-order run; an in-order log is
// already sorted and left untouched.
func sortLogBySeq(log []isa.Inst) {
	for i := 1; i < len(log); i++ {
		if log[i].Seq < log[i-1].Seq {
			sort.Slice(log, func(a, b int) bool { return log[a].Seq < log[b].Seq })
			return
		}
	}
}
