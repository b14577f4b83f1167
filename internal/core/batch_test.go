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

// TestArenaKeepsOneStream pins where a run's decoded stream goes: back to
// the process-wide store, not into the arena. After batches over three
// benchmarks on one arena, the next checkout of each — on any arena —
// finds its released stream instead of decoding it again.
func TestArenaKeepsOneStream(t *testing.T) {
	const commits = 3000
	ooo := pipeline.DefaultConfig()
	ooo.OutOfOrder = true
	specs := []BatchSpec{{Pipeline: pipeline.DefaultConfig()}, {Pipeline: ooo}}
	st := workload.Streams()
	bench := func(name string) workload.Params {
		t.Helper()
		b, ok := spec.ByName(name)
		if !ok {
			t.Fatalf("%s not in roster", name)
		}
		return b.Params
	}
	a := NewArena()
	names := []string{"mcf", "gzip-graphic", "ammp"}
	for _, name := range names {
		if _, err := RunBatchArena(context.Background(), a, bench(name), commits, specs); err != nil {
			t.Fatal(err)
		}
	}
	if a.groupParams != bench("ammp") || a.groupCommits != commits {
		t.Errorf("the arena's deadness group is for %s at %d commits, want ammp's last run",
			a.groupParams.Name, a.groupCommits)
	}
	d0, h0 := st.Decodes(), st.Hits()
	for _, name := range names {
		sh, err := st.Checkout(bench(name), commits, 0)
		if err != nil {
			t.Fatal(err)
		}
		st.Release(sh)
	}
	if _, err := RunBatchArena(context.Background(), NewArena(), bench("mcf"), commits, specs); err != nil {
		t.Fatal(err)
	}
	if d, h := st.Decodes()-d0, st.Hits()-h0; d != 0 || h != 4 {
		t.Errorf("checking out three released streams and rerunning one decoded %d and hit %d, want 0 and 4", d, h)
	}
}

// TestArenaRecyclesStreamMemos pins memo recycling at the command-line
// budget: an arena cycling through four benchmarks at 100k commits, one
// more than the default store keeps, misses every time, and each decode
// takes over the arrays of the stream it evicts. Decoding 100k commits
// into fresh memos allocates about 5 MB; a recycled decode allocates only
// the generator and the arena's new deadness group.
func TestArenaRecyclesStreamMemos(t *testing.T) {
	const commits = 100_000
	st := workload.Streams()
	if st.Budget() != workload.DefaultStreamBytes {
		t.Fatalf("store budget %d, want the default %d", st.Budget(), workload.DefaultStreamBytes)
	}
	// Start empty: a stream an earlier test kept at a smaller commit
	// target would be a hit that grows, not a recycled decode.
	st.SetBudget(0)
	st.SetBudget(workload.DefaultStreamBytes)
	var benches [4]workload.Params
	for i, name := range []string{"mcf", "ammp", "gzip-graphic", "twolf"} {
		b, ok := spec.ByName(name)
		if !ok {
			t.Fatalf("%s not in roster", name)
		}
		benches[i] = b.Params
	}
	a := NewArena()
	decode := func(w workload.Params) {
		sh, _, err := a.checkout(w, commits)
		if err != nil {
			t.Fatal(err)
		}
		sh.BodyPrefix(commits + 512)
		sh.Wrong(commits / 8)
		a.release(sh)
	}
	for _, w := range benches { // warm-up: the first decodes allocate
		decode(w)
	}
	const switches = 8
	d0 := st.Decodes()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < switches; i++ {
		decode(benches[i%len(benches)])
	}
	runtime.ReadMemStats(&after)
	if d := st.Decodes() - d0; d != switches {
		t.Fatalf("cycling four benchmarks decoded %d streams in %d switches, want one each", d, switches)
	}
	if perSwitch := (after.TotalAlloc - before.TotalAlloc) / switches; perSwitch >= 1<<20 {
		t.Errorf("a stream switch at the default budget allocates %d bytes, want < 1 MB", perSwitch)
	}
	if b := st.Bytes(); b > st.Budget() {
		t.Errorf("the store keeps %d bytes, over its %d-byte budget", b, st.Budget())
	}
}

// TestStoreCheckoutMatchesFreshDecode pins that no consumer writes into a
// kept stream: after batches of both core families with every optional
// analysis and sink, plus a solo traced run, the stream the store hands
// out next equals a fresh decode, instruction for instruction, on both the
// correct path and the wrong path.
func TestStoreCheckoutMatchesFreshDecode(t *testing.T) {
	const commits = 4000
	b, ok := spec.ByName("twolf")
	if !ok {
		t.Fatal("twolf not in roster")
	}
	w := b.Params
	ooo := pipeline.DefaultConfig()
	ooo.OutOfOrder = true
	squash := pipeline.DefaultConfig()
	PolicySquashL1.Apply(&squash)
	specs := []BatchSpec{
		{Pipeline: pipeline.DefaultConfig(), FrontEnd: true, StoreBuffer: true},
		{Pipeline: squash, FrontEnd: true},
		{Pipeline: ooo, StoreBuffer: true},
	}
	a := NewArena()
	for i := 0; i < 3; i++ {
		if _, err := RunBatchArena(context.Background(), a, w, commits, specs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := runLanes(context.Background(), a, w, commits, []Config{{KeepTrace: true, RegFile: true}}); err != nil {
		t.Fatal(err)
	}

	st := workload.Streams()
	h0 := st.Hits()
	kept, err := st.Checkout(w, commits, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Release(kept)
	if st.Hits() == h0 {
		t.Fatal("the checkout decoded afresh instead of finding the kept stream")
	}
	fresh, err := workload.NewShared(w)
	if err != nil {
		t.Fatal(err)
	}
	n := commits + 1024
	got, want := kept.BodyPrefix(n), fresh.BodyPrefix(n)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kept body %d = %+v, a fresh decode has %+v", i, got[i], want[i])
		}
	}
	for j := 0; j < commits/4; j++ {
		if g, f := *kept.Wrong(j), *fresh.Wrong(j); g != f {
			t.Fatalf("kept wrong-path draw %d = %+v, a fresh decode has %+v", j, g, f)
		}
	}
}
