package core

import (
	"context"
	"reflect"
	"testing"

	"softerror/internal/ace"
	"softerror/internal/cache"
	"softerror/internal/pipeline"
	"softerror/internal/spec"
	"softerror/internal/workload"
)

// referenceRun runs cfg on the single-step reference interpreter and
// analyses its recorded trace with the ace trace analyses — the
// independent oracle the lane engine's streaming analysis is pinned
// against.
func referenceRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	gen, err := workload.New(cfg.Workload)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pipeline.New(cfg.Pipeline, gen, workload.WarmedDefault())
	if err != nil {
		t.Fatal(err)
	}
	tr := p.Run(cfg.Commits, true)
	rep := ace.Analyze(tr)
	res := &Result{
		Name:           cfg.Workload.Name,
		IPC:            tr.IPC(),
		Report:         rep,
		Cycles:         tr.Cycles,
		Commits:        tr.Commits,
		Squashes:       tr.Squashes,
		Refetches:      tr.Refetches,
		ThrottleEvents: tr.ThrottleEvents,
		LoadMissRateL0: tr.LoadMissRate(cache.LevelL0),
		LoadMissRateL1: tr.LoadMissRate(cache.LevelL1),
	}
	if cfg.RegFile {
		res.RegFile = ace.AnalyzeRegFile(tr, rep.Dead)
	}
	if cfg.FrontEnd {
		res.FrontEndReport = ace.AnalyzeFrontEnd(tr, rep.Dead)
	}
	if cfg.StoreBuffer {
		res.StoreBufferReport = ace.AnalyzeStoreBuffer(tr, rep.Dead)
	}
	if cfg.Pipeline.OutOfOrder {
		res.ROBReport = ace.AnalyzeROB(tr, rep.Dead)
		res.LSQReport = ace.AnalyzeLSQ(tr, rep.Dead)
		res.TAGEReport = ace.AnalyzeTAGE(tr)
	}
	return res
}

// matchReference runs every spec on the reference interpreter and demands
// the batched Results equal it exactly.
func matchReference(t *testing.T, w workload.Params, commits uint64, specs []BatchSpec, batched []*Result) {
	t.Helper()
	for i, sp := range specs {
		want := referenceRun(t, Config{
			Workload:    w,
			Pipeline:    sp.Pipeline,
			Commits:     commits,
			FrontEnd:    sp.FrontEnd,
			StoreBuffer: sp.StoreBuffer,
		})
		if !reflect.DeepEqual(want, batched[i]) {
			t.Fatalf("lane %d diverges from the reference run:\n reference IPC=%.6f SDC=%.6f cycles=%d\n batched   IPC=%.6f SDC=%.6f cycles=%d",
				i, want.IPC, want.Report.SDCAVF(), want.Cycles,
				batched[i].IPC, batched[i].Report.SDCAVF(), batched[i].Cycles)
		}
	}
}

// TestRunBatchMatchesIndependentRuns pins the tentpole identity end to
// end: a batched evaluation's Results — IPC, stats, IQ/front-end/store-
// buffer reports, deadness — equal K independent reference runs analysed
// from their recorded traces exactly.
func TestRunBatchMatchesIndependentRuns(t *testing.T) {
	b, ok := spec.ByName("mcf")
	if !ok {
		t.Fatal("mcf not in roster")
	}
	const commits = 15_000

	var specs []BatchSpec
	for _, pol := range []Policy{PolicyBaseline, PolicySquashL1, PolicySquashL0, PolicyThrottleL0} {
		cfg := pipeline.DefaultConfig()
		pol.Apply(&cfg)
		specs = append(specs, BatchSpec{Pipeline: cfg, FrontEnd: true, StoreBuffer: true})
	}
	narrow := pipeline.DefaultConfig()
	narrow.IQSize = 16
	narrow.StoreBufferSize = 4
	specs = append(specs, BatchSpec{Pipeline: narrow})

	batched, err := RunBatchContext(context.Background(), b.Params, commits, specs)
	if err != nil {
		t.Fatal(err)
	}
	matchReference(t, b.Params, commits, specs, batched)
}

// TestRunBatchPCIndexedLanesMatchReference pins the private-source lanes:
// with a PC-indexed predictor every lane of a batch fetches from its own
// generator in its own fetch order, and each lane's Result — and a
// one-lane RunContext's, register file included — equals the reference
// interpreter's, for both predictors and both core families.
func TestRunBatchPCIndexedLanesMatchReference(t *testing.T) {
	const commits = 8000
	for _, bp := range []string{"gshare", "bimodal"} {
		for _, ooo := range []bool{false, true} {
			w := workload.Default()
			w.BranchPredictor = bp
			var specs []BatchSpec
			for _, pol := range []Policy{PolicyBaseline, PolicySquashL1, PolicyThrottleL0} {
				cfg := pipeline.DefaultConfig()
				cfg.OutOfOrder = ooo
				pol.Apply(&cfg)
				specs = append(specs, BatchSpec{Pipeline: cfg, FrontEnd: true, StoreBuffer: pol != PolicyBaseline})
			}
			batched, err := RunBatchContext(context.Background(), w, commits, specs)
			if err != nil {
				t.Fatalf("%s ooo=%v: %v", bp, ooo, err)
			}
			matchReference(t, w, commits, specs, batched)

			// RunContext is the same lane alone, register file included.
			one := Config{Workload: w, Pipeline: specs[1].Pipeline, Commits: commits, RegFile: true}
			got, err := RunContext(context.Background(), one)
			if err != nil {
				t.Fatalf("%s ooo=%v: %v", bp, ooo, err)
			}
			if want := referenceRun(t, one); !reflect.DeepEqual(want, got) {
				t.Fatalf("%s ooo=%v: RunContext diverges from the reference run", bp, ooo)
			}
		}
	}
}
