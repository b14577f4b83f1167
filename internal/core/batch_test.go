package core

import (
	"context"
	"reflect"
	"runtime"
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

// TestArenaKeepsOneStream pins the arena's stream retention: after batches
// over three benchmarks the arena holds exactly one decoded stream, the
// last one; a batch over that benchmark reuses it, and a batch over an
// earlier one replaces it.
func TestArenaKeepsOneStream(t *testing.T) {
	const commits = 3000
	ooo := pipeline.DefaultConfig()
	ooo.OutOfOrder = true
	specs := []BatchSpec{{Pipeline: pipeline.DefaultConfig()}, {Pipeline: ooo}}
	a := NewArena()
	run := func(name string) *streamEntry {
		t.Helper()
		b, ok := spec.ByName(name)
		if !ok {
			t.Fatalf("%s not in roster", name)
		}
		if _, err := RunBatchArena(context.Background(), a, b.Params, commits, specs); err != nil {
			t.Fatal(err)
		}
		if a.last == nil || a.last.params != b.Params {
			t.Fatalf("after a %s batch the arena keeps %+v, want %s's stream", name, a.last, name)
		}
		return a.last
	}
	run("mcf")
	run("gzip-graphic")
	kept := run("ammp")
	if run("ammp") != kept {
		t.Error("a second ammp batch decoded its stream again instead of reusing the kept one")
	}
	if run("mcf") == kept {
		t.Error("an mcf batch reused ammp's stream")
	}
}

// TestArenaRecyclesStreamMemos pins memo recycling: once warm, an arena
// that alternates between two benchmarks decodes each new stream into the
// arrays of the stream it replaces. Decoding 100k commits into fresh memos
// allocates about 6 MB; a recycled decode allocates only the generator.
func TestArenaRecyclesStreamMemos(t *testing.T) {
	const commits = 100_000
	var benches [2]workload.Params
	for i, name := range []string{"mcf", "ammp"} {
		b, ok := spec.ByName(name)
		if !ok {
			t.Fatalf("%s not in roster", name)
		}
		benches[i] = b.Params
	}
	a := NewArena()
	decode := func(w workload.Params) {
		sh, _, err := a.stream(w, commits)
		if err != nil {
			t.Fatal(err)
		}
		sh.BodyPrefix(commits + 512)
		sh.Wrong(commits / 8)
	}
	for _, w := range benches { // warm-up: the first two decodes allocate
		decode(w)
	}
	const switches = 6
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < switches; i++ {
		decode(benches[i%2])
	}
	runtime.ReadMemStats(&after)
	if perSwitch := (after.TotalAlloc - before.TotalAlloc) / switches; perSwitch >= 1<<20 {
		t.Errorf("a stream switch on a warm arena allocates %d bytes, want < 1 MB", perSwitch)
	}
}
