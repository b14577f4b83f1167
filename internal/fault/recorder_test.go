package fault_test

import (
	"context"
	"testing"

	"softerror/internal/core"
	"softerror/internal/fault"
	"softerror/internal/pipeline"
	"softerror/internal/spec"
)

// checkRecorderMatchesTrace runs cfg once with both a kept trace and a
// StreamRecorder sink, and requires the recorder's injector to classify
// strikes [0, strikes) of every Figure-1 configuration exactly as the
// trace injector does: the trace path is the oracle for the compact
// records.
func checkRecorderMatchesTrace(t *testing.T, cfg core.Config, strikes int, seed uint64) {
	t.Helper()
	rec := fault.NewStreamRecorder(cfg.Commits)
	cfg.KeepTrace, cfg.Sink = true, rec
	res, err := core.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	dead := res.Report.Dead
	got := rec.Injector(res.Cycles, res.Report.Entries, dead)
	want := fault.NewInjector(res.Trace, dead)
	labels, cfgs := core.OutcomeConfigs(strikes, seed)
	for c, fc := range cfgs {
		for i := 0; i < strikes; i++ {
			if g, w := got.StrikeOutcome(fc, i), want.StrikeOutcome(fc, i); g != w {
				t.Fatalf("%s, strike %d: recorder %v, trace %v", labels[c], i, g, w)
			}
		}
	}
}

// TestRecorderMatchesTraceInjector pins the recorder's compact residency
// and commit records to the trace injector on the three shapes a
// recording takes: an in-order baseline; squash-L1, whose refetched
// copies share a Seq; and the out-of-order core, whose commits arrive in
// dataflow order.
func TestRecorderMatchesTraceInjector(t *testing.T) {
	mcf, _ := spec.ByName("mcf")
	squash := pipeline.DefaultConfig()
	core.PolicySquashL1.Apply(&squash)
	ooo := pipeline.DefaultConfig()
	ooo.OutOfOrder = true
	for _, tc := range []struct {
		name string
		pcfg pipeline.Config
	}{
		{"inorder-baseline", pipeline.Config{}},
		{"inorder-squash-l1", squash},
		{"ooo-baseline", ooo},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkRecorderMatchesTrace(t, core.Config{Workload: mcf.Params, Pipeline: tc.pcfg, Commits: 20_000}, 20_000, 1)
		})
	}
}

// FuzzRecorderMatchesTrace draws a benchmark, policy, core family, IQ
// size, commit count and campaign seed, and makes the comparison of
// TestRecorderMatchesTraceInjector.
func FuzzRecorderMatchesTrace(f *testing.F) {
	f.Add(uint8(0), uint8(0), false, uint8(60), uint16(3000), uint64(1))
	f.Add(uint8(6), uint8(1), false, uint8(28), uint16(4999), uint64(7))
	f.Add(uint8(13), uint8(0), true, uint8(60), uint16(2000), uint64(3))
	f.Add(uint8(20), uint8(2), true, uint8(12), uint16(900), uint64(11))
	benches := spec.All()
	f.Fuzz(func(t *testing.T, bench, policy uint8, ooo bool, iq uint8, commits uint16, seed uint64) {
		pcfg := pipeline.DefaultConfig()
		core.Policy(policy % uint8(core.NumPolicies)).Apply(&pcfg)
		pcfg.OutOfOrder = ooo
		pcfg.IQSize = 4 + int(iq%128)
		cfg := core.Config{
			Workload: benches[int(bench)%len(benches)].Params,
			Pipeline: pcfg,
			Commits:  1 + uint64(commits%5000),
		}
		checkRecorderMatchesTrace(t, cfg, 2000, seed)
	})
}
