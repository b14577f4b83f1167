package softerror

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"softerror/internal/ace"
	"softerror/internal/cache"
	"softerror/internal/core"
	"softerror/internal/fault"
	"softerror/internal/pipeline"
	"softerror/internal/spec"
	"softerror/internal/workload"
)

// TestGoldenDefaultWorkload pins the exact headline numbers of the default
// workload at a fixed commit count. Everything in the stack is
// deterministic, so any change to these values means a behavioural change
// somewhere in the generator, pipeline, or analysis — which must be a
// conscious decision, re-golded here.
func TestGoldenDefaultWorkload(t *testing.T) {
	res, err := core.Run(core.Config{Workload: workload.Default(), Commits: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	got := fmt.Sprintf("cycles=%d commits=%d sdc=%.6f due=%.6f false=%.6f idle=%.6f dead=%.6f",
		res.Cycles, res.Commits, rep.SDCAVF(), rep.DUEAVF(), rep.FalseDUEAVF(),
		rep.IdleFraction(), rep.Dead.DeadFraction())

	// Re-running must be bit-identical.
	res2, err := core.Run(core.Config{Workload: workload.Default(), Commits: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	rep2 := res2.Report
	got2 := fmt.Sprintf("cycles=%d commits=%d sdc=%.6f due=%.6f false=%.6f idle=%.6f dead=%.6f",
		res2.Cycles, res2.Commits, rep2.SDCAVF(), rep2.DUEAVF(), rep2.FalseDUEAVF(),
		rep2.IdleFraction(), rep2.Dead.DeadFraction())
	if got != got2 {
		t.Fatalf("non-deterministic run:\n a=%s\n b=%s", got, got2)
	}
	t.Logf("golden: %s", got)
}

// TestGoldenKernelAnalysis pins the analysis of a fixed hand-written kernel
// end to end: the deadness discovery on a known program must classify the
// known-dead instructions, every run.
func TestGoldenKernelAnalysis(t *testing.T) {
	const kernel = `
load r5 r1 0x1000
alu r6 r5 r2
store r6 r3 0x2000
alu r120 r6 -
cmp p3 r6 r2
(p3) alu r7 r6 -
(p3!) alu r8 r6 -
nop
br p3 taken
`
	src := workload.MustParseReplay(kernel, 7)
	res := runReplay(src, 9_000)
	d := res.Dead
	iters := d.Committed() / 9
	if iters < 900 {
		t.Fatalf("expected ~1000 kernel iterations, got %d", iters)
	}
	// Per 9-instruction iteration: one nop (neutral); one pred-false; two
	// fdd-reg writes (the r120 temp and the guarded r7 write, neither ever
	// read); and one dead store (0x2000 is overwritten next iteration with
	// no intervening load). Check the per-iteration ratios.
	ratio := func(c ace.Category) float64 {
		return float64(d.Counts[c]) / float64(d.Committed())
	}
	within := func(name string, got, want float64) {
		t.Helper()
		if got < want-0.02 || got > want+0.02 {
			t.Errorf("%s fraction = %.4f, want ~%.3f", name, got, want)
		}
	}
	within("neutral", ratio(ace.CatNeutral), 1.0/9)
	within("pred-false", ratio(ace.CatPredFalse), 1.0/9)
	within("fdd-reg", ratio(ace.CatFDDReg), 2.0/9)
	within("fdd-mem", ratio(ace.CatFDDMem), 1.0/9)
}

// runReplay runs a replay source through the default machine.
func runReplay(src *workload.Replay, commits uint64) *ace.Report {
	mem := cache.MustNewDefault()
	workload.WarmCaches(mem)
	p := pipeline.MustNew(pipeline.DefaultConfig(), src, mem)
	return ace.Analyze(p.Run(commits, true))
}

// TestGoldenRosterStability pins the roster composition and that every
// profile's first instruction is stable across calls.
func TestGoldenRosterStability(t *testing.T) {
	a, b := spec.All(), spec.All()
	for i := range a {
		ga, gb := workload.MustNew(a[i].Params), workload.MustNew(b[i].Params)
		for k := 0; k < 50; k++ {
			if ga.Next() != gb.Next() {
				t.Fatalf("%s: profile not reproducible at draw %d", a[i].Name, k)
			}
		}
	}
	names := strings.Join(spec.Names(), ",")
	if !strings.Contains(names, "mcf") || !strings.Contains(names, "ammp") {
		t.Fatal("roster names changed")
	}
}

// outcomeTallies renders per-configuration campaign tallies, one line per
// rung of the Figure-1 ladder.
func outcomeTallies(labels []string, counts [][fault.NumOutcomes]uint64) string {
	var sb strings.Builder
	for i, c := range counts {
		fmt.Fprintf(&sb, "%s %v\n", labels[i], c)
	}
	return sb.String()
}

// traceCampaign runs the Figure-1 ladder at the given strike budget over
// an injector built from a kept trace of mcf.
func traceCampaign(t *testing.T, ooo bool, build func(*pipeline.Trace, *ace.Deadness) *fault.Injector) string {
	t.Helper()
	mcf, _ := spec.ByName("mcf")
	cfg := core.Config{Workload: mcf.Params, Commits: 20_000, KeepTrace: true}
	if ooo {
		cfg.Pipeline = pipeline.DefaultConfig()
		cfg.Pipeline.OutOfOrder = true
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	labels, cfgs := core.OutcomeConfigs(5_000, 1)
	results, err := (&fault.Campaign{Injector: build(res.Trace, res.Report.Dead), Configs: cfgs}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	counts := make([][fault.NumOutcomes]uint64, len(results))
	for i, r := range results {
		counts[i] = r.Counts
	}
	return outcomeTallies(labels, counts)
}

// TestOutcomesGolden pins Figure 1's per-configuration tallies at 20k
// commits × 5k strikes beyond the one campaign results/repro_all.txt
// holds: an integer and the densest floating-point benchmark through
// core.Outcomes, and mcf's front-end and reorder-buffer injector
// campaigns. Any change to the π replay, the strike sampler or the
// deadness categories shows here.
func TestOutcomesGolden(t *testing.T) {
	for _, tc := range []struct{ name, want string }{
		{"mcf", goldenOutcomesMCF},
		{"sixtrack", goldenOutcomesSixtrack},
	} {
		b, _ := spec.ByName(tc.name)
		rows, err := core.Outcomes(b, 20_000, 5_000, 1)
		if err != nil {
			t.Fatal(err)
		}
		labels := make([]string, len(rows))
		counts := make([][fault.NumOutcomes]uint64, len(rows))
		for i, r := range rows {
			labels[i], counts[i] = r.Label, r.Counts
		}
		if got := outcomeTallies(labels, counts); got != tc.want {
			t.Errorf("%s outcomes:\n--- got ---\n%s--- want ---\n%s", tc.name, got, tc.want)
		}
	}
	if got := traceCampaign(t, false, fault.NewFrontEndInjector); got != goldenOutcomesFrontEnd {
		t.Errorf("front-end outcomes:\n--- got ---\n%s--- want ---\n%s", got, goldenOutcomesFrontEnd)
	}
	if got := traceCampaign(t, true, fault.NewROBInjector); got != goldenOutcomesROB {
		t.Errorf("ROB outcomes:\n--- got ---\n%s--- want ---\n%s", got, goldenOutcomesROB)
	}
}

const (
	goldenOutcomesMCF = `unprotected [1217 743 1206 1834 0 0 0 0 0]
parity [1217 743 0 0 1206 1834 0 0 0]
parity+pi-commit [1217 743 0 0 888 1834 318 0 0]
parity+anti-pi [1217 743 0 0 440 1834 766 0 0]
parity+pet [1217 743 0 0 283 1834 923 0 0]
parity+pi-regfile [1217 743 0 0 213 1818 993 16 0]
parity+pi-storebuf [1217 743 0 0 115 1802 1091 32 0]
parity+pi-memory [1217 743 0 0 0 1688 1206 146 0]
`
	goldenOutcomesSixtrack = `unprotected [131 485 1694 2690 0 0 0 0 0]
parity [131 485 0 0 1694 2690 0 0 0]
parity+pi-commit [131 485 0 0 1585 2690 109 0 0]
parity+anti-pi [131 485 0 0 827 2690 867 0 0]
parity+pet [131 485 0 0 542 2690 1152 0 0]
parity+pi-regfile [131 485 0 0 406 2680 1288 10 0]
parity+pi-storebuf [131 485 0 0 222 1870 1472 820 0]
parity+pi-memory [131 485 0 0 0 1730 1694 960 0]
`
	goldenOutcomesFrontEnd = `unprotected [875 669 1899 1557 0 0 0 0 0]
parity [875 669 0 0 1899 1557 0 0 0]
parity+pi-commit [875 669 0 0 783 1557 1116 0 0]
parity+anti-pi [875 669 0 0 365 1557 1534 0 0]
parity+pet [875 669 0 0 251 1557 1648 0 0]
parity+pi-regfile [875 669 0 0 195 1552 1704 5 0]
parity+pi-storebuf [875 669 0 0 93 1530 1806 27 0]
parity+pi-memory [875 669 0 0 0 1432 1899 125 0]
`
	goldenOutcomesROB = `unprotected [3338 36 502 1124 0 0 0 0 0]
parity [3338 36 0 0 502 1124 0 0 0]
parity+pi-commit [3338 36 0 0 444 1124 58 0 0]
parity+anti-pi [3338 36 0 0 228 1124 274 0 0]
parity+pet [3338 36 0 0 153 1124 349 0 0]
parity+pi-regfile [3338 36 0 0 118 1120 384 4 0]
parity+pi-storebuf [3338 36 0 0 61 1105 441 19 0]
parity+pi-memory [3338 36 0 0 0 1045 502 79 0]
`
)
