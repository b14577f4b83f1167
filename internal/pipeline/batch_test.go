package pipeline

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"softerror/internal/cache"
	"softerror/internal/workload"
)

// batchConfigs is a spread of lane shapes covering the axes the sweep
// varies: IQ size, squash policy, store-buffer depth, issue discipline,
// out-of-order structure sizes.
func batchConfigs() []Config {
	base := DefaultConfig()
	narrow := base
	narrow.IQSize = 16
	squash := base
	squash.SquashTrigger = TriggerL1Miss
	deepSB := base
	deepSB.StoreBufferSize = 4
	ooo := base
	ooo.OutOfOrder = true
	// A cramped out-of-order shape under both miss actions: squashes and
	// branch flushes compact the ROB while dispatch tickets are
	// outstanding, so robComplete's twin search runs over compacted rings.
	oooTight := ooo
	oooTight.ROBSize = 16
	oooTight.LSQSize = 4
	oooTight.SquashTrigger = TriggerL0Miss
	oooTight.ThrottleTrigger = TriggerL1Miss
	return []Config{base, narrow, squash, deepSB, ooo, oooTight}
}

// soloTrace runs one config through the single-step reference
// interpreter.
func soloTrace(t *testing.T, p workload.Params, cfg Config, commits uint64) *Trace {
	t.Helper()
	gen, err := workload.New(p)
	if err != nil {
		t.Fatal(err)
	}
	return MustNew(cfg, gen, workload.WarmedDefault()).Run(commits, true)
}

// TestBatchSingleLaneMatchesRunStream pins the K=1 degenerate case: one
// lane in a batch produces the exact trace the reference interpreter
// records — every residency, commit and statistic.
func TestBatchSingleLaneMatchesRunStream(t *testing.T) {
	const commits = 20_000
	p := workload.Default()
	for _, cfg := range batchConfigs() {
		want := soloTrace(t, p, cfg, commits)
		if cfg.OutOfOrder && cfg.SquashTrigger != TriggerNone && (want.Squashes == 0 || want.WrongFlushes == 0) {
			t.Fatalf("cfg %+v no longer compacts the ROB: squashes=%d wrong flushes=%d",
				cfg, want.Squashes, want.WrongFlushes)
		}

		sh, err := workload.NewShared(p)
		if err != nil {
			t.Fatal(err)
		}
		rec := NewTraceRecorder(cfg, commits)
		stats, err := RunBatchStreamArena(context.Background(), commits, sh,
			[]Config{cfg}, []*cache.Hierarchy{workload.WarmedDefault()},
			[]BatchSink{LiftSink(sh, rec)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := rec.Trace(stats[0])
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("K=1 batch diverges from the reference for cfg %+v:\n want cycles=%d commits=%d res=%d\n got  cycles=%d commits=%d res=%d",
				cfg, want.Cycles, want.Commits, len(want.Residencies),
				got.Cycles, got.Commits, len(got.Residencies))
		}
	}
}

// TestBatchLanesMatchIndependentRuns pins the tentpole identity at the
// engine level: K lanes sharing one decoded stream each produce the trace
// of an independent reference run of their config.
func TestBatchLanesMatchIndependentRuns(t *testing.T) {
	const commits = 20_000
	p := workload.Default()
	cfgs := batchConfigs()

	sh, err := workload.NewShared(p)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*TraceRecorder, len(cfgs))
	sinks := make([]BatchSink, len(cfgs))
	mems := make([]*cache.Hierarchy, len(cfgs))
	for i, cfg := range cfgs {
		recs[i] = NewTraceRecorder(cfg, commits)
		sinks[i] = LiftSink(sh, recs[i])
		mems[i] = workload.WarmedDefault()
	}
	stats, err := RunBatchStreamArena(context.Background(), commits, sh, cfgs, mems, sinks, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		want := soloTrace(t, p, cfg, commits)
		got := recs[i].Trace(stats[i])
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("lane %d (cfg %+v) diverges from its reference run:\n want cycles=%d commits=%d res=%d\n got  cycles=%d commits=%d res=%d",
				i, cfg, want.Cycles, want.Commits, len(want.Residencies),
				got.Cycles, got.Commits, len(got.Residencies))
		}
	}
}

// TestPrivateSourceServesOneLane pins the private source's contract: it
// follows one lane's fetch order, so a batch of two lanes over one
// private source is rejected.
func TestPrivateSourceServesOneLane(t *testing.T) {
	src := NewPrivateSource(workload.MustNew(workload.Default()))
	cfgs := []Config{DefaultConfig(), DefaultConfig()}
	mems := []*cache.Hierarchy{workload.WarmedDefault(), workload.WarmedDefault()}
	if _, err := RunBatchStreamArena(context.Background(), 100, src, cfgs, mems, make([]BatchSink, 2), nil); err == nil {
		t.Fatal("two lanes over one private source accepted")
	}
}

// TestBatchCancelled pins cooperative cancellation: a cancelled context
// aborts the batch with the context's error.
func TestBatchCancelled(t *testing.T) {
	p := workload.Default()
	sh, err := workload.NewShared(p)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = RunBatchStreamArena(ctx, 1_000_000, sh,
		[]Config{DefaultConfig()}, []*cache.Hierarchy{workload.WarmedDefault()}, []BatchSink{nil}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch = %v, want context.Canceled", err)
	}
}
