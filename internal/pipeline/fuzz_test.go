package pipeline_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"softerror/internal/cache"
	"softerror/internal/invariant"
	"softerror/internal/pipeline"
	"softerror/internal/rng"
	"softerror/internal/workload"
)

// Random workload and machine draws come from internal/invariant, the
// shared audit layer, so these tests, the invariant checks, and cmd/seraudit
// all explore the same configuration space and a seed reported by any one
// of them reproduces in the others.

// TestRandomisedConfigurations drives the pipeline across random workload ×
// machine configurations and checks the structural invariants every run
// must satisfy: forward progress, unique issue per sequence number,
// occupancy within capacity, commit log in program order.
func TestRandomisedConfigurations(t *testing.T) {
	s := rng.New(0xF00D, 99)
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		params := invariant.RandomWorkload(s)
		cfg := invariant.RandomPipelineConfig(s)
		if err := params.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid params: %v", trial, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid config: %v", trial, err)
		}
		gen := workload.MustNew(params)
		mem := cache.MustNewDefault()
		workload.WarmCaches(mem)
		p := pipeline.MustNew(cfg, gen, mem)
		tr := p.Run(4000, true)

		if tr.Commits < 4000 {
			t.Fatalf("trial %d: no progress (%d commits)", trial, tr.Commits)
		}
		issued := map[uint64]bool{}
		var occ uint64
		for _, r := range tr.Residencies {
			if r.Evict < r.Enq {
				t.Fatalf("trial %d: inverted residency %+v", trial, r)
			}
			occ += r.Occupancy()
			if r.Issued {
				if issued[r.Inst.Seq] {
					t.Fatalf("trial %d: seq %d issued twice", trial, r.Inst.Seq)
				}
				issued[r.Inst.Seq] = true
			}
		}
		if max := tr.Cycles * uint64(cfg.IQSize); occ > max {
			t.Fatalf("trial %d: occupancy %d > capacity %d", trial, occ, max)
		}
		for i := 1; i < len(tr.CommitLog); i++ {
			if tr.CommitLog[i].Seq <= tr.CommitLog[i-1].Seq {
				t.Fatalf("trial %d: commit log out of order at %d (ooo=%v)",
					trial, i, cfg.OutOfOrder)
			}
		}
		var sbOcc uint64
		for _, r := range tr.StoreBuffer {
			sbOcc += r.Occupancy()
		}
		if max := tr.Cycles * uint64(cfg.StoreBufferSize); sbOcc > max {
			t.Fatalf("trial %d: store-buffer occupancy exceeds capacity", trial)
		}
	}
}

// TestRandomisedKernels drives random hand-written programs (drawn from the
// kernel grammar) through the pipeline: parse, replay, run, no panics, and
// commits keep flowing.
func TestRandomisedKernels(t *testing.T) {
	s := rng.New(0xBEEF, 7)
	ops := []string{
		"alu r%d r%d -", "alu r%d r%d r%d", "cmp p%d r%d r%d",
		"load r%d r%d 0x%x", "store r%d r%d 0x%x", "prefetch r%d 0x%x",
		"nop", "hint", "br r%d taken",
	}
	for trial := 0; trial < 20; trial++ {
		var lines []string
		n := 4 + s.Intn(30)
		for i := 0; i < n; i++ {
			switch pat := ops[s.Intn(len(ops))]; pat {
			case "nop", "hint":
				lines = append(lines, pat)
			case "alu r%d r%d -":
				lines = append(lines, sprintf(pat, 1+s.Intn(120), 1+s.Intn(120)))
			case "alu r%d r%d r%d", "cmp p%d r%d r%d", "store r%d r%d 0x%x":
				lines = append(lines, sprintf(pat, 1+s.Intn(60), 1+s.Intn(120), 1+s.Intn(120)))
			case "load r%d r%d 0x%x":
				lines = append(lines, sprintf(pat, 1+s.Intn(120), 1+s.Intn(120), 0x1000+8*s.Intn(512)))
			case "prefetch r%d 0x%x":
				lines = append(lines, sprintf(pat, 1+s.Intn(120), 0x1000+8*s.Intn(512)))
			case "br r%d taken":
				lines = append(lines, sprintf(pat, 1+s.Intn(120)))
			}
		}
		prog := join(lines)
		body, err := workload.ParseProgram(prog)
		if err != nil {
			t.Fatalf("trial %d: generated invalid program: %v\n%s", trial, err, prog)
		}
		src, err := workload.NewReplay(body, s.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		mem := cache.MustNewDefault()
		workload.WarmCaches(mem)
		tr := pipeline.MustNew(pipeline.DefaultConfig(), src, mem).Run(2000, true)
		if tr.Commits < 2000 {
			t.Fatalf("trial %d: kernel stalled", trial)
		}
	}
}

// runTraced runs the single-step reference interpreter built from
// (params, cfg) on a freshly warmed default hierarchy and returns the
// recorded trace.
func runTraced(t testing.TB, cfg pipeline.Config, params workload.Params, commits uint64) *pipeline.Trace {
	t.Helper()
	gen := workload.MustNew(params)
	mem := cache.MustNewDefault()
	workload.WarmCaches(mem)
	return pipeline.MustNew(cfg, gen, mem).Run(commits, true)
}

// laneTraced runs (params, cfg) as a one-lane run of the lane engine on a
// freshly warmed default hierarchy, recording its events through a lifted
// TraceRecorder. The lane reads the decoded-once shared stream where the
// workload allows it and its own private fetch-order source otherwise
// (PC-indexed branch predictors).
func laneTraced(t testing.TB, cfg pipeline.Config, params workload.Params, commits uint64) *pipeline.Trace {
	t.Helper()
	var src pipeline.BatchSource
	if sh, err := workload.NewShared(params); err == nil {
		src = sh
	} else {
		src = pipeline.NewPrivateSource(workload.MustNew(params))
	}
	rec := pipeline.NewTraceRecorder(cfg, commits)
	st, err := pipeline.RunBatchStreamArena(context.Background(), commits, src,
		[]pipeline.Config{cfg}, []*cache.Hierarchy{workload.WarmedDefault()},
		[]pipeline.BatchSink{pipeline.LiftSink(src, rec)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Trace(st[0])
}

// TestCycleSkipDifferential cross-validates the lane engine's event-horizon
// fast path against the single-step reference interpreter: for random
// workload × machine configurations spanning in-order/out-of-order, every
// trigger combination, every branch predictor and tiny queues, both must
// produce *identical* traces — every cycle count, residency interval and
// committed instruction.
func TestCycleSkipDifferential(t *testing.T) {
	s := rng.New(0x5C1F, 17)
	const trials = 15
	for trial := 0; trial < trials; trial++ {
		params := invariant.RandomWorkload(s)
		cfg := invariant.RandomPipelineConfig(s)
		// Narrow queues on a third of trials: capacity-limited regimes are
		// where a wrong horizon would first show as a shifted eviction.
		if trial%3 == 0 {
			cfg.IQSize = 8
			cfg.StoreBufferSize = 2
		}
		want := runTraced(t, cfg, params, 4000)
		got := laneTraced(t, cfg, params, 4000)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: lane trace diverges from single-step reference "+
				"(cycles %d vs %d, commits %d vs %d, squashes %d vs %d, bp=%q, cfg=%+v)",
				trial, want.Cycles, got.Cycles, want.Commits, got.Commits,
				want.Squashes, got.Squashes, params.BranchPredictor, cfg)
		}
	}
}

// TestCycleSkipDifferentialWorstStaller pins the corpus entry that stalls
// the hardest of any configuration the randomised differential has visited:
// near-universal L0 misses with a deep miss tail, squash-on-L0 plus
// throttle-on-L0, a shallow front end and a tiny store buffer. Most cycles
// here are quiescent waits, so the lane fast-forwards through the bulk of
// the run — exactly where a horizon bug would surface.
func TestCycleSkipDifferentialWorstStaller(t *testing.T) {
	params := workload.Default()
	params.LoadFrac = 0.25
	params.StoreFrac = 0.1
	params.MissBurstiness = 1
	params.L0Frac = 0.1
	params.L1Frac = 0.2
	params.L2Frac = 0.2
	params.MemFrac = 0.5
	params.FetchBubbleProb = 0.4
	params.FetchBubbleMean = 6
	params.LoadUseDistance = 1

	cfg := pipeline.DefaultConfig()
	cfg.SquashTrigger = pipeline.TriggerL0Miss
	cfg.ThrottleTrigger = pipeline.TriggerL0Miss
	cfg.IQSize = 8
	cfg.StoreBufferSize = 2
	cfg.FetchWidth = 1
	cfg.IssueWidth = 1

	want := runTraced(t, cfg, params, 4000)
	got := laneTraced(t, cfg, params, 4000)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("worst-staller trace diverges (cycles %d vs %d, commits %d vs %d)",
			want.Cycles, got.Cycles, want.Commits, got.Commits)
	}
	// The entry earns its keep only if stalls dominate: the lane must
	// actually be skipping here, not stepping a busy machine.
	if frac := float64(want.FetchStallCycles) / float64(want.Cycles); frac < 0.5 {
		t.Fatalf("corpus entry no longer stall-dominated: %.2f of cycles stalled", frac)
	}
}

// FuzzLaneMatchesReference draws a random workload and machine from the
// fuzzed seed and requires the one-lane trace to equal the single-step
// reference interpreter's.
func FuzzLaneMatchesReference(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 0x5C1F} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		s := rng.New(seed, 0x1A4E)
		params := invariant.RandomWorkload(s)
		cfg := invariant.RandomPipelineConfig(s)
		want := runTraced(t, cfg, params, 2000)
		got := laneTraced(t, cfg, params, 2000)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d: lane trace diverges from single-step reference "+
				"(cycles %d vs %d, commits %d vs %d, bp=%q, cfg=%+v)",
				seed, want.Cycles, got.Cycles, want.Commits, got.Commits,
				params.BranchPredictor, cfg)
		}
	})
}

func sprintf(format string, args ...int) string {
	vals := make([]interface{}, len(args))
	for i, a := range args {
		vals[i] = a
	}
	return fmt.Sprintf(format, vals...)
}

func join(lines []string) string { return strings.Join(lines, "\n") }
