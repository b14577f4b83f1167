package fault

import (
	"slices"
	"sync"

	"softerror/internal/ace"
	"softerror/internal/isa"
	"softerror/internal/pibit"
	"softerror/internal/pipeline"
)

// StreamRecorder is a pipeline.Sink that retains exactly what injection
// over the instruction queue reads, and nothing else. Each IQ residency is
// kept as a 24-byte record (its Seq, its enqueue, issue and eviction
// cycles in 32 bits, and the issued, wrong-path and destination-named
// bits) instead of a 72-byte pipeline.Residency, and each commit as its
// Seq plus what π replay reads of it, an op and an address in a
// pibit.Index, 26 bytes instead of a 40-byte isa.Inst. Campaign drivers
// pass it as a run's core.Config.Sink, so one run feeds both the streamed
// analytic AVFs and the Monte-Carlo injector without materialising a full
// trace (front-end and store-buffer intervals, commit cycles) that
// injection never samples.
type StreamRecorder struct {
	res  residencies // keyed by Seq until Injector resolves them
	seqs []uint64    // each commit's Seq, parallel to ix's positions
	ix   pibit.Index
	cum  []uint64

	// sealed is set once Injector has put the log in program order and
	// resolved the residencies' keys to log positions.
	sealed   bool
	totalOcc uint64
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
// injector aliases the recorded records, it does not copy them.
func (rec *StreamRecorder) Release() {
	recorderPool.Put(rec)
}

func (rec *StreamRecorder) reset(commits uint64) {
	rec.res.reset()
	rec.seqs = rec.seqs[:0]
	rec.ix.Reset(int(commits))
	if uint64(cap(rec.seqs)) < commits {
		rec.seqs = make([]uint64, 0, commits)
	}
	rec.sealed = false
}

// OnResidency implements pipeline.Sink.
func (rec *StreamRecorder) OnResidency(r pipeline.Residency) {
	rec.res.add(&r)
}

// OnFrontEnd implements pipeline.Sink (ignored: IQ injection only).
func (rec *StreamRecorder) OnFrontEnd(pipeline.Residency) {}

// OnStoreBuffer implements pipeline.Sink (ignored: IQ injection only).
func (rec *StreamRecorder) OnStoreBuffer(pipeline.Residency) {}

// OnCommit implements pipeline.Sink.
func (rec *StreamRecorder) OnCommit(in isa.Inst, _, _ uint64) {
	rec.seqs = append(rec.seqs, in.Seq)
	rec.ix.Append(&in)
}

// Injector builds the structure injector over the recorded stream. Its
// strikes classify exactly as NewInjector's over a trace of the same run:
// the same residency order, and the commit log restored to program order
// (an out-of-order run commits in dataflow order). cycles and entries
// come from the run's stats and configuration (Stats.Cycles,
// Config.IQSize). The first call seals the recording; later calls reuse
// it.
func (rec *StreamRecorder) Injector(cycles uint64, entries int, dead *ace.Deadness) *Injector {
	if !rec.sealed {
		rec.ix.Seal(rec.seqs)
		rec.resolve()
		rec.cum, rec.totalOcc = rec.res.cumulate(rec.cum)
		rec.sealed = true
	}
	return newInjector(rec.res, rec.cum, rec.totalOcc, cycles, entries, &rec.ix, dead)
}

// resolve replaces each residency's Seq key by its position in the sorted
// commit log, or noPos. Residencies close in roughly commit order, so the
// position after the last one resolved is tried before a binary search.
func (rec *StreamRecorder) resolve() {
	next := 0
	for i := range rec.res.recs {
		r := &rec.res.recs[i]
		if r.flags&resWrongPath != 0 {
			r.key = noPos
			continue
		}
		p, ok := next, next < len(rec.seqs) && rec.seqs[next] == r.key
		if !ok {
			p, ok = slices.BinarySearch(rec.seqs, r.key)
		}
		r.key = noPos
		if ok {
			r.key, next = uint64(p), p+1
		}
	}
}
