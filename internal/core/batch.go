package core

import (
	"context"
	"errors"
	"fmt"

	"softerror/internal/ace"
	"softerror/internal/cache"
	"softerror/internal/pipeline"
	"softerror/internal/workload"
)

// BatchSpec is one lane of a batched evaluation: a pipeline configuration
// plus the lane's optional extra analyses. RunContext runs the same lane
// engine with one lane, adding the RegFile analysis and sinks a Config can
// ask for.
type BatchSpec struct {
	Pipeline    pipeline.Config
	FrontEnd    bool
	StoreBuffer bool
}

// RunBatchContext evaluates K configuration variants over one decode of
// the workload's instruction stream: one generator pass, one deadness
// analysis per realised commit-log length, K compact pipeline lanes. Each
// returned Result equals RunContext under the same spec — that is the same
// engine with one lane — and equals the reference interpreter's recorded
// trace analysed by the ace trace analyses, which the batched-independent
// seraudit check pins. Workloads with a PC-indexed branch predictor run
// the same lanes, each over its own generator. Caches are always
// pre-warmed.
func RunBatchContext(ctx context.Context, w workload.Params, commits uint64, specs []BatchSpec) ([]*Result, error) {
	a := defaultArenas.Get()
	defer defaultArenas.Put(a)
	return RunBatchArena(ctx, a, w, commits, specs)
}

// RunBatchArena is RunBatchContext drawing its reusable evaluation state —
// warm hierarchies, collectors, deadness memos, lane state — from the
// caller's arena, and the decoded stream from the process-wide store
// (workload.Streams). Reuse is invisible in the results: a reused arena
// returns byte-identical Results to a fresh one (the arena-reuse seraudit
// check pins this). The arena serves one run at a time.
//
// The stream is checked out for the batch alone: once released, the next
// user extends its memos and an eviction recycles their arrays into
// another workload's, so no memo pointer may outlive the batch. Results,
// reports and traces hold copies, plain sinks receive copies, the deadness
// memos own their slices, and pipeline lanes shed their body snapshots
// before RunBatchStreamArena returns.
func RunBatchArena(ctx context.Context, a *Arena, w workload.Params, commits uint64, specs []BatchSpec) ([]*Result, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	lanes := make([]Config, len(specs))
	for i, sp := range specs {
		lanes[i] = Config{Pipeline: sp.Pipeline, FrontEnd: sp.FrontEnd, StoreBuffer: sp.StoreBuffer}
	}
	return runLanes(ctx, a, w, commits, lanes)
}

// runLanes is the one lane runner behind RunContext and RunBatchArena: one
// lane per Config over a single decode of w, with state drawn from a (nil
// for a fresh arena). Each Config's Workload and Commits are ignored;
// KeepTrace and Sink are plain sinks teed in beside the lane's collector.
//
// It is also the one place that knows whether a stream can be shared. A
// PC-indexed branch predictor makes the stream depend on each lane's fetch
// order (workload.ErrUnshareable), so each such lane fetches from its own
// generator through a pipeline.PrivateSource, analysed by its own
// ace.BatchGroup; neither is kept.
func runLanes(ctx context.Context, a *Arena, w workload.Params, commits uint64, lanes []Config) ([]*Result, error) {
	if a == nil {
		a = NewArena()
	}
	if commits == 0 {
		commits = DefaultCommits
	}
	inOrder := false
	for _, ln := range lanes {
		inOrder = inOrder || !ln.Pipeline.OutOfOrder
	}
	sh, group, err := a.checkout(w, commits, inOrder)
	if errors.Is(err, workload.ErrUnshareable) {
		out := make([]*Result, len(lanes))
		for i := range lanes {
			gen, err := workload.New(w)
			if err != nil {
				return nil, err
			}
			src := pipeline.NewPrivateSource(gen)
			res, err := runGroup(ctx, a, w.Name, commits, src, ace.NewBatchGroup(src), lanes[i:i+1])
			if err != nil {
				return nil, err
			}
			out[i] = res[0]
		}
		return out, nil
	}
	if err != nil {
		return nil, err
	}
	defer a.release(sh)
	return runGroup(ctx, a, w.Name, commits, sh, group, lanes)
}

// runGroup runs one lane per Config over src, every lane's collector
// sharing group.
func runGroup(ctx context.Context, a *Arena, name string, commits uint64, src pipeline.BatchSource, group *ace.BatchGroup, lanes []Config) ([]*Result, error) {
	// Warm hierarchies come from the arena's pool as copy-on-touch views of
	// the one frozen warm template: a view is bit-identical to a fresh warm
	// clone (pinned by the cache view tests) but copies only the sets its
	// lane probes, far cheaper than copying — let alone re-simulating —
	// the whole warm state K times.
	zero := pipeline.Config{}
	cfgs := make([]pipeline.Config, len(lanes))
	mems := make([]*cache.Hierarchy, len(lanes))
	sinks := make([]pipeline.BatchSink, len(lanes))
	colls := make([]*ace.BatchCollector, len(lanes))
	recs := make([]*pipeline.TraceRecorder, len(lanes))
	for i, ln := range lanes {
		cfg := ln.Pipeline
		if cfg == zero {
			cfg = pipeline.DefaultConfig()
		}
		cfgs[i] = cfg
		mems[i] = a.warmHierarchy()
		ccfg := ace.StructureConfig(cfg, commits)
		ccfg.FrontEnd, ccfg.StoreBuffer, ccfg.RegFile = ln.FrontEnd, ln.StoreBuffer, ln.RegFile
		coll, err := a.collector(ccfg, group)
		if err != nil {
			return nil, err
		}
		colls[i] = coll
		sinks[i] = coll
		var plain []pipeline.Sink
		if ln.KeepTrace {
			recs[i] = pipeline.NewTraceRecorder(cfg, commits)
			plain = append(plain, recs[i])
		}
		if ln.Sink != nil {
			plain = append(plain, ln.Sink)
		}
		if len(plain) > 0 {
			ext := pipeline.LiftSink(src, pipeline.Tee(plain...)).(laneSink)
			sinks[i] = &laneTee{coll: coll, ext: ext}
		}
	}

	stats, err := pipeline.RunBatchStreamArena(ctx, commits, src, cfgs, mems, sinks, &a.pipe)
	if err != nil {
		return nil, err
	}

	out := make([]*Result, len(lanes))
	for i := range lanes {
		st := stats[i]
		reps := colls[i].Finish(st.Cycles)
		a.putCollector(colls[i])
		a.putHierarchy(mems[i])
		simCycles.Add(st.Cycles)
		res := newResult(name, st)
		res.Report, res.RegFile = reps.IQ, reps.RegFile
		res.FrontEndReport, res.StoreBufferReport = reps.FrontEnd, reps.StoreBuffer
		res.ROBReport, res.LSQReport = reps.ROB, reps.LSQ
		res.TAGEReport = tageReport(cfgs[i], st)
		if recs[i] != nil {
			res.Trace = recs[i].Trace(st)
		}
		out[i] = res
	}
	return out, nil
}

// laneSink is the compact event interface of both families, implemented by
// ace.BatchCollector and by every sink pipeline.LiftSink adapts.
type laneSink interface {
	pipeline.BatchSink
	pipeline.BatchOOOSink
}

// laneTee feeds one lane's compact events to its collector and to the
// caller's plain sinks, lifted through the lane's source.
type laneTee struct {
	coll *ace.BatchCollector
	ext  laneSink
}

func (t *laneTee) BatchCommit(ref pipeline.BatchRef, seq, enq, issue uint64) {
	t.coll.BatchCommit(ref, seq, enq, issue)
	t.ext.BatchCommit(ref, seq, enq, issue)
}

func (t *laneTee) BatchResidency(ref pipeline.BatchRef, seq, enq, issue, evict uint64, issued, squashed bool) {
	t.coll.BatchResidency(ref, seq, enq, issue, evict, issued, squashed)
	t.ext.BatchResidency(ref, seq, enq, issue, evict, issued, squashed)
}

func (t *laneTee) BatchFrontEnd(ref pipeline.BatchRef, seq, fetched, until uint64, delivered bool) {
	t.coll.BatchFrontEnd(ref, seq, fetched, until, delivered)
	t.ext.BatchFrontEnd(ref, seq, fetched, until, delivered)
}

func (t *laneTee) BatchStoreBuffer(ref pipeline.BatchRef, seq, enq, evict uint64) {
	t.coll.BatchStoreBuffer(ref, seq, enq, evict)
	t.ext.BatchStoreBuffer(ref, seq, enq, evict)
}

func (t *laneTee) BatchROB(ref pipeline.BatchRef, seq, enq, evict uint64, read bool) {
	t.coll.BatchROB(ref, seq, enq, evict, read)
	t.ext.BatchROB(ref, seq, enq, evict, read)
}

func (t *laneTee) BatchLSQ(ref pipeline.BatchRef, seq, enq, evict uint64, read bool) {
	t.coll.BatchLSQ(ref, seq, enq, evict, read)
	t.ext.BatchLSQ(ref, seq, enq, evict, read)
}
