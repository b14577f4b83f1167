package static_test

import (
	"context"
	"os"
	"reflect"
	"strconv"
	"testing"

	"softerror/internal/core"
	"softerror/internal/invariant"
	"softerror/internal/pipeline"
	"softerror/internal/rng"
	"softerror/internal/static"
	"softerror/internal/workload"
)

func TestEmptyProgram(t *testing.T) {
	a := static.NewAnalyzer()
	a.Load(nil, 0)
	b := a.Query(pipeline.DefaultConfig())
	if b != (static.Bounds{}) {
		t.Fatalf("empty program bounds = %+v, want zero", b)
	}
}

func TestQueryDeterministic(t *testing.T) {
	b1, err := static.Analyze(workload.Default(), 2000, pipeline.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b2, err := static.Analyze(workload.Default(), 2000, pipeline.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b1, b2) {
		t.Fatalf("Analyze not deterministic:\n%+v\n%+v", b1, b2)
	}
}

// TestBoundsInRange: every AVF bound is a fraction regardless of config
// shape, including degenerate configs Query has to clamp.
func TestBoundsInRange(t *testing.T) {
	cfgs := []pipeline.Config{
		pipeline.DefaultConfig(),
		{IssueWidth: 1, FetchWidth: 1, IQSize: 1, FrontEndDepth: 1,
			BranchResolveLatency: 1, StoreBufferSize: 1, StoreDrainLatency: 1},
		{OutOfOrder: true}, // all-zero dims: clamped, not rejected
		{IssueWidth: -3, FetchWidth: 0, IQSize: 1 << 30, OutOfOrder: true},
	}
	for s := uint64(1); s <= 4; s++ {
		r := rng.New(s, 0x57A71)
		p := invariant.RandomWorkload(r)
		p.BranchPredictor = "" // the analyzer bounds position-addressable streams only
		sh, err := workload.NewShared(p)
		if err != nil {
			t.Fatal(err)
		}
		a := static.NewAnalyzer()
		a.Load(sh.BodyPrefix(1000+static.BodySlack), 1000)
		for _, cfg := range cfgs {
			b := a.Query(cfg)
			check := func(name string, v float64) {
				if v < 0 || v > 1 || v != v {
					t.Errorf("seed %d cfg %+v: %s = %v out of [0,1]", s, cfg, name, v)
				}
			}
			for name, sb := range map[string]static.StructBounds{
				"IQ": b.IQ, "FrontEnd": b.FrontEnd,
				"StoreBuffer": b.StoreBuffer, "RegFile": b.RegFile,
			} {
				check(name+".SDC", sb.SDC)
				check(name+".FalseDUE", sb.FalseDUE)
				check(name+".DUE", sb.DUE)
			}
			for f, v := range b.IQField {
				check("IQField", v)
				_ = f
			}
		}
	}
}

// TestBoundsDominateSimulation is the inline slice of the static-bounds
// seraudit check: over random (workload, config) draws, every static bound
// must dominate the simulated AVF it claims to bound.
func TestBoundsDominateSimulation(t *testing.T) {
	const eps = 1e-9
	commits := uint64(2000)
	if v := os.Getenv("STATIC_DOMINANCE_COMMITS"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("STATIC_DOMINANCE_COMMITS: %v", err)
		}
		commits = n
	}
	seeds := uint64(10)
	if v := os.Getenv("STATIC_DOMINANCE_SEEDS"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("STATIC_DOMINANCE_SEEDS: %v", err)
		}
		seeds = n
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		s := rng.New(seed, 0x57A7B)
		p := invariant.RandomWorkload(s)
		p.BranchPredictor = "" // the analyzer bounds position-addressable streams only
		cfg := invariant.RandomPipelineConfig(s)
		res, err := core.RunContext(context.Background(), core.Config{
			Workload: p, Pipeline: cfg, Commits: commits,
			FrontEnd: true, StoreBuffer: true, RegFile: true,
		})
		if err != nil {
			t.Fatalf("seed %d: run: %v (cfg=%+v)", seed, err, cfg)
		}
		b, err := static.Analyze(p, commits, cfg)
		if err != nil {
			t.Fatalf("seed %d: analyze: %v", seed, err)
		}
		ck := func(name string, bound, sim float64) {
			if bound+eps < sim {
				t.Errorf("seed %d %s: static bound %.6f < simulated %.6f (cfg=%+v)",
					seed, name, bound, sim, cfg)
			}
		}
		ck("IQ.SDC", b.IQ.SDC, res.Report.SDCAVF())
		ck("IQ.FalseDUE", b.IQ.FalseDUE, res.Report.FalseDUEAVF())
		ck("IQ.DUE", b.IQ.DUE, res.Report.DUEAVF())
		total := float64(res.Report.TotalBC())
		for f := range b.IQField {
			ck("IQField", b.IQField[f], float64(res.Report.FieldACEBC[f])/total)
		}
		ck("FrontEnd.SDC", b.FrontEnd.SDC, res.FrontEndReport.SDCAVF())
		ck("FrontEnd.FalseDUE", b.FrontEnd.FalseDUE, res.FrontEndReport.FalseDUEAVF())
		ck("FrontEnd.DUE", b.FrontEnd.DUE, res.FrontEndReport.DUEAVF())
		ck("StoreBuffer.SDC", b.StoreBuffer.SDC, res.StoreBufferReport.SDCAVF())
		ck("StoreBuffer.FalseDUE", b.StoreBuffer.FalseDUE, res.StoreBufferReport.FalseDUEAVF())
		ck("StoreBuffer.DUE", b.StoreBuffer.DUE, res.StoreBufferReport.DUEAVF())
		ck("RegFile.SDC", b.RegFile.SDC, res.RegFile.SDCAVF())
		ck("RegFile.FalseDUE", b.RegFile.FalseDUE, res.RegFile.FalseDUEAVF())
		ck("RegFile.DUE", b.RegFile.DUE, res.RegFile.DUEAVF())
		if b.MinCycles > res.Cycles {
			t.Errorf("seed %d: MinCycles %d > simulated cycles %d (cfg=%+v)",
				seed, b.MinCycles, res.Cycles, cfg)
		}
	}
}
