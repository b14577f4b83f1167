// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section. Each benchmark regenerates its artefact's
// rows (printed once per `go test -bench` invocation) and reports the
// headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. Absolute numbers come from the
// synthetic workload substrate; EXPERIMENTS.md records the paper-vs-
// measured comparison for every artefact.
package softerror

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"softerror/internal/cache"
	"softerror/internal/core"
	"softerror/internal/fault"
	"softerror/internal/pipeline"
	"softerror/internal/report"
	"softerror/internal/spec"
	"softerror/internal/workload"
)

// benchCommits keeps full-roster sweeps tractable inside a benchmark
// iteration while leaving the AVF integrals stable.
const benchCommits = 60_000

var printOnce sync.Map

// printTable prints a table once per benchmark name across iterations.
func printTable(name string, t *report.Table) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Println()
		fmt.Print(t.String())
	}
}

func newBenchSuite() *core.Suite { return core.NewSuite(spec.All(), benchCommits) }

// BenchmarkSuitePrewarm measures the parallel evaluation engine directly:
// one full Table-1 fan-out (26 benchmarks x 3 policies) serially and on the
// GOMAXPROCS worker pool, reporting the wall-clock ratio as a `speedup`
// custom metric so BENCH_*.json tracks the win across PRs. Both passes
// produce identical memo contents — determinism is pinned separately by
// TestParallelDeterminism*.
func BenchmarkSuitePrewarm(b *testing.B) {
	pols := []core.Policy{core.PolicyBaseline, core.PolicySquashL1, core.PolicySquashL0}
	prewarm := func(workers int) time.Duration {
		s := core.NewSuite(spec.All(), 20_000)
		s.Workers = workers
		start := time.Now()
		if err := s.Prewarm(pols...); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	var serial, parallel time.Duration
	for i := 0; i < b.N; i++ {
		serial += prewarm(1)
		parallel += prewarm(0) // GOMAXPROCS workers
	}
	b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
}

// BenchmarkPipelineHotLoop measures the cycle loop itself on the paper's
// most squash-heavy point (mcf under squash-on-L1-miss), across the
// execution modes: the single-step reference interpreter with a recorded
// trace (the pre-optimisation hot loop), a one-lane run of the lane engine
// with a recorded trace (a TraceRecorder lifted into the lane), the same
// lane with no sink at all, and that nil-sink lane on the out-of-order
// family. All produce identical results (pinned by
// TestCycleSkipDifferential and the ace collector tests); only the cost
// differs. Every iteration decodes its stream afresh, into memos reserved
// up front and lane state from a reused arena, as core.RunContext runs
// it. Reports simulated Mcycles/s alongside allocs/op.
func BenchmarkPipelineHotLoop(b *testing.B) {
	bench, ok := spec.ByName("mcf")
	if !ok {
		b.Fatal("mcf missing from roster")
	}
	cfg := pipeline.DefaultConfig()
	cfg.SquashTrigger = pipeline.TriggerL1Miss
	const commits = 100_000
	reference := func(b *testing.B) {
		b.ReportAllocs()
		var cycles uint64
		for i := 0; i < b.N; i++ {
			p := pipeline.MustNew(cfg, workload.MustNew(bench.Params), workload.WarmedDefault())
			cycles += p.Run(commits, true).Cycles
		}
		b.ReportMetric(float64(cycles)/1e6/b.Elapsed().Seconds(), "Mcycles/s")
	}
	lane := func(b *testing.B, cfg pipeline.Config, record bool) {
		b.ReportAllocs()
		var cycles uint64
		var arena pipeline.BatchArena
		for i := 0; i < b.N; i++ {
			sh, err := workload.NewShared(bench.Params)
			if err != nil {
				b.Fatal(err)
			}
			sh.Reserve(commits+1024, commits/4+256) // as core.RunContext does
			var rec *pipeline.TraceRecorder
			sinks := []pipeline.BatchSink{nil}
			if record {
				rec = pipeline.NewTraceRecorder(cfg, commits)
				sinks[0] = pipeline.LiftSink(sh, rec)
			}
			st, err := pipeline.RunBatchStreamArena(context.Background(), commits, sh,
				[]pipeline.Config{cfg}, []*cache.Hierarchy{workload.WarmedDefault()}, sinks, &arena)
			if err != nil {
				b.Fatal(err)
			}
			if record {
				rec.Trace(st[0])
			}
			cycles += st[0].Cycles
		}
		b.ReportMetric(float64(cycles)/1e6/b.Elapsed().Seconds(), "Mcycles/s")
	}
	ooo := cfg
	ooo.OutOfOrder = true
	b.Run("singlestep-materialized", reference)
	b.Run("fastforward-materialized", func(b *testing.B) { lane(b, cfg, true) })
	b.Run("fastforward-stream", func(b *testing.B) { lane(b, cfg, false) })
	// The out-of-order family on the same nil-sink lane: ROB, LSQ and TAGE
	// machinery active.
	b.Run("ooo", func(b *testing.B) { lane(b, ooo, false) })
}

// BenchmarkBatchedSweep measures the batched evaluation path on the
// paper's squash-heaviest point: one sweep column (mcf under squash-on-L1,
// eight IQ/store-buffer variants) evaluated per-cell — one full simulation
// per configuration, the pre-batching sweep loop — and batched — one
// decode of the instruction stream feeding all eight compact lanes
// (core.RunBatchContext). Both paths produce byte-identical Results (the
// batched-independent seraudit check pins this); only the cost differs.
// Reports simulated Mcycles/s summed across the column and the wall-clock
// speedup.
func BenchmarkBatchedSweep(b *testing.B) {
	bench, ok := spec.ByName("mcf")
	if !ok {
		b.Fatal("mcf missing from roster")
	}
	specs := batchedSweepColumn()
	const commits = 60_000

	var perCell, batched time.Duration
	run := func(b *testing.B, f func() uint64) {
		b.ReportAllocs()
		var cycles uint64
		for i := 0; i < b.N; i++ {
			cycles += f()
		}
		b.ReportMetric(float64(cycles)/1e6/b.Elapsed().Seconds(), "Mcycles/s")
	}
	b.Run("per-cell", func(b *testing.B) {
		run(b, func() uint64 {
			start := time.Now()
			var cycles uint64
			for _, sp := range specs {
				res, err := core.RunContext(context.Background(), core.Config{
					Workload: bench.Params, Pipeline: sp.Pipeline, Commits: commits,
				})
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Cycles
			}
			perCell += time.Since(start)
			return cycles
		})
	})
	b.Run("batched", func(b *testing.B) {
		run(b, func() uint64 {
			start := time.Now()
			results, err := core.RunBatchContext(context.Background(), bench.Params, commits, specs)
			if err != nil {
				b.Fatal(err)
			}
			var cycles uint64
			for _, res := range results {
				cycles += res.Cycles
			}
			batched += time.Since(start)
			return cycles
		})
	})
	// The same batched column with the out-of-order family in every lane:
	// one decode still drives all eight lanes, each additionally carrying a
	// ROB, an LSQ and the TAGE predictor.
	oooSpecs := batchedSweepColumn()
	for i := range oooSpecs {
		oooSpecs[i].Pipeline.OutOfOrder = true
	}
	b.Run("ooo", func(b *testing.B) {
		run(b, func() uint64 {
			results, err := core.RunBatchContext(context.Background(), bench.Params, commits, oooSpecs)
			if err != nil {
				b.Fatal(err)
			}
			var cycles uint64
			for _, res := range results {
				cycles += res.Cycles
			}
			return cycles
		})
	})
	if perCell > 0 && batched > 0 {
		fmt.Printf("\nBatchedSweep: %d-config column, per-cell %v vs batched %v: %.2fx\n",
			len(specs), perCell, batched, perCell.Seconds()/batched.Seconds())
	}
}

// batchedSweepColumn is the shared-workload column BenchmarkBatchedSweep
// evaluates: squash-on-L1 with the IQ and store-buffer depths swept.
func batchedSweepColumn() []core.BatchSpec {
	var specs []core.BatchSpec
	for _, iq := range []int{16, 32, 64, 128} {
		for _, sb := range []int{4, 8, 16, 32} {
			cfg := pipeline.DefaultConfig()
			cfg.SquashTrigger = pipeline.TriggerL1Miss
			cfg.IQSize = iq
			cfg.StoreBufferSize = sb
			specs = append(specs, core.BatchSpec{Pipeline: cfg})
		}
	}
	return specs
}

// BenchmarkPrewarmCellAllocs measures the allocation footprint of one
// evaluation cell — the unit Suite.Prewarm fans out 26×3 of — on the
// streaming path the suite now uses versus materialising the trace first.
// -benchmem's B/op column is the headline: streaming folds residencies into
// the AVF integrals as their intervals close instead of buffering them.
func BenchmarkPrewarmCellAllocs(b *testing.B) {
	bench, ok := spec.ByName("mcf")
	if !ok {
		b.Fatal("mcf missing from roster")
	}
	cfg := pipeline.DefaultConfig()
	cfg.SquashTrigger = pipeline.TriggerL1Miss
	for _, mode := range []struct {
		name string
		keep bool
	}{{"materialized-trace", true}, {"streaming", false}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(core.Config{
					Workload: bench.Params, Pipeline: cfg,
					Commits: benchCommits, KeepTrace: mode.keep,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1Squashing regenerates Table 1: IPC, SDC AVF, DUE AVF and
// the IPC/AVF merit columns for the baseline and both squash triggers.
func BenchmarkTable1Squashing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSuite()
		rows, err := s.Table1()
		if err != nil {
			b.Fatal(err)
		}
		t := report.New("Table 1 (regenerated)",
			"design point", "IPC", "SDC AVF", "DUE AVF", "IPC/SDC", "IPC/DUE")
		for _, r := range rows {
			t.AddRow(r.Policy.String(), report.F2(r.IPC), report.Pct(r.SDCAVF),
				report.Pct(r.DUEAVF), report.F2(r.MeritSDC), report.F2(r.MeritDUE))
		}
		printTable("table1", t)
		base, l1 := rows[0], rows[1]
		b.ReportMetric(1-l1.SDCAVF/base.SDCAVF, "sdc-avf-reduction")
		b.ReportMetric(1-l1.IPC/base.IPC, "ipc-loss")
		b.ReportMetric(l1.MeritSDC/base.MeritSDC-1, "mitf-gain")
	}
}

// BenchmarkTable2Roster regenerates the benchmark roster of Table 2.
func BenchmarkTable2Roster(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benches := spec.All()
		t := report.New("Table 2 (regenerated)", "benchmark", "suite", "skipped (M)")
		for _, bench := range benches {
			kind := "INT"
			if bench.FP {
				kind = "FP"
			}
			t.AddRow(bench.Name, kind, fmt.Sprintf("%d", bench.SkippedM))
		}
		printTable("table2", t)
		b.ReportMetric(float64(len(benches)), "benchmarks")
	}
}

// BenchmarkFigure1Outcomes regenerates Figure 1's fault-outcome taxonomy
// with an injection campaign on a representative benchmark.
func BenchmarkFigure1Outcomes(b *testing.B) {
	bench, _ := spec.ByName("twolf")
	for i := 0; i < b.N; i++ {
		rows, err := core.Outcomes(bench, benchCommits, 40_000, 1)
		if err != nil {
			b.Fatal(err)
		}
		t := report.New("Figure 1 outcome taxonomy (regenerated, "+bench.Name+")",
			"configuration", "benign", "SDC", "false DUE", "true DUE", "suppressed")
		for _, r := range rows {
			benign := r.Counts[fault.OutcomeIdle] + r.Counts[fault.OutcomeNeverRead] +
				r.Counts[fault.OutcomeBenignUnACE]
			frac := func(n uint64) string {
				return report.Pct(float64(n) / float64(r.Strikes))
			}
			t.AddRow(r.Label, frac(benign), frac(r.Counts[fault.OutcomeSDC]),
				frac(r.Counts[fault.OutcomeFalseDUE]), frac(r.Counts[fault.OutcomeTrueDUE]),
				frac(r.Counts[fault.OutcomeSuppressed]))
		}
		printTable("figure1", t)
		var missed uint64
		for _, r := range rows {
			missed += r.Counts[fault.OutcomeMissedError]
		}
		b.ReportMetric(float64(missed), "missed-errors")
	}
}

// BenchmarkFigure2FalseDUE regenerates Figure 2: false-DUE coverage by the
// cumulative tracking mechanisms, with INT/FP/overall means.
func BenchmarkFigure2FalseDUE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSuite()
		rows, err := s.Figure2(512)
		if err != nil {
			b.Fatal(err)
		}
		t := report.New("Figure 2 (regenerated): false DUE AVF remaining",
			"benchmark", "base", "pi-commit", "anti-pi", "pet-512", "pi-regfile", "pi-storebuf", "pi-memory")
		add := func(r core.Figure2Row) {
			cells := []string{r.Bench, report.Pct(r.BaseFalseDUE)}
			for _, rem := range r.Remaining {
				cells = append(cells, report.Pct(rem))
			}
			t.AddRow(cells...)
		}
		fp, intg := true, false
		mi, mf, ma := core.Figure2Mean(rows, &intg), core.Figure2Mean(rows, &fp), core.Figure2Mean(rows, nil)
		mi.Bench, mf.Bench, ma.Bench = "mean-INT", "mean-FP", "mean-ALL"
		for _, r := range append(rows, mi, mf, ma) {
			add(r)
		}
		printTable("figure2", t)
		b.ReportMetric(ma.CoveredFrac(0), "commit-coverage")
		b.ReportMetric(ma.CoveredFrac(1)-ma.CoveredFrac(0), "antipi-coverage")
		b.ReportMetric(ma.CoveredFrac(5), "total-coverage")
	}
}

// BenchmarkFigure3PETSweep regenerates Figure 3: FDD coverage versus
// PET-buffer size for the three dead populations.
func BenchmarkFigure3PETSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSuite()
		rows, err := s.Figure3(nil)
		if err != nil {
			b.Fatal(err)
		}
		t := report.New("Figure 3 (regenerated): FDD coverage vs PET size",
			"entries", "FDD-reg", "+returns", "+memory")
		var at512 core.Figure3Row
		for _, r := range rows {
			t.AddRow(fmt.Sprintf("%d", r.Entries), report.Pct(r.FDDReg),
				report.Pct(r.WithReturns), report.Pct(r.WithMemory))
			if r.Entries == 512 {
				at512 = r
			}
		}
		printTable("figure3", t)
		b.ReportMetric(at512.FDDReg, "pet512-fddreg-coverage")
	}
}

// BenchmarkFigure4Combined regenerates Figure 4: per-benchmark relative SDC
// and DUE AVFs under squash-L1 plus π-to-store tracking.
func BenchmarkFigure4Combined(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSuite()
		rows, err := s.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		t := report.New("Figure 4 (regenerated): relative AVFs under combined techniques",
			"benchmark", "rel SDC", "rel DUE", "rel IPC")
		var sdc, due, ipc []float64
		for _, r := range rows {
			t.AddRow(r.Bench, report.F3(r.RelSDC), report.F3(r.RelDUE), report.F3(r.RelIPC))
			sdc = append(sdc, r.RelSDC)
			due = append(due, r.RelDUE)
			ipc = append(ipc, r.RelIPC)
		}
		t.AddRow("geomean", report.F3(core.GeoMean(sdc)), report.F3(core.GeoMean(due)),
			report.F3(core.GeoMean(ipc)))
		printTable("figure4", t)
		b.ReportMetric(1-core.GeoMean(sdc), "sdc-reduction")
		b.ReportMetric(1-core.GeoMean(due), "due-reduction")
		b.ReportMetric(1-core.GeoMean(ipc), "ipc-loss")
	}
}

// BenchmarkSection41Breakdown regenerates the §4.1 occupancy decomposition
// (paper: 29% ACE, 30% idle, 8% Ex-ACE, 33% valid un-ACE).
func BenchmarkSection41Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSuite()
		rows, err := s.Breakdown()
		if err != nil {
			b.Fatal(err)
		}
		t := report.New("Section 4.1 occupancy breakdown (regenerated)",
			"benchmark", "idle", "never-read", "Ex-ACE", "un-ACE", "ACE")
		var idle, ex, un, ac float64
		for _, r := range rows {
			t.AddRow(r.Bench, report.Pct(r.Idle), report.Pct(r.NeverRead),
				report.Pct(r.ExACE), report.Pct(r.UnACE), report.Pct(r.ACE))
			idle += r.Idle
			ex += r.ExACE
			un += r.UnACE
			ac += r.ACE
		}
		n := float64(len(rows))
		printTable("breakdown", t)
		b.ReportMetric(ac/n, "ace-fraction")
		b.ReportMetric(idle/n, "idle-fraction")
		b.ReportMetric(ex/n, "exace-fraction")
		b.ReportMetric(un/n, "unace-fraction")
	}
}

// BenchmarkAblationThrottle compares fetch throttling against squashing —
// the action the paper studied and dropped for adding nothing (§3.1).
func BenchmarkAblationThrottle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSuite()
		rows, err := s.ThrottleAblation()
		if err != nil {
			b.Fatal(err)
		}
		t := report.New("Ablation (regenerated): squash vs fetch throttle",
			"design point", "IPC", "SDC AVF", "IPC/SDC")
		for _, r := range rows {
			t.AddRow(r.Policy.String(), report.F2(r.IPC), report.Pct(r.SDCAVF), report.F2(r.MeritSDC))
		}
		printTable("ablation-throttle", t)
	}
}

// BenchmarkAblationRefetchOverlap sweeps the refetch-overlap design knob
// (DESIGN.md decision 3): how much of the front-end refill hides under the
// miss shadow decides the IPC cost of squashing.
func BenchmarkAblationRefetchOverlap(b *testing.B) {
	bench, _ := spec.ByName("mcf")
	for i := 0; i < b.N; i++ {
		t := report.New("Ablation (regenerated): refetch overlap (mcf, squash-L1)",
			"overlap (cycles)", "IPC", "SDC AVF", "IPC/SDC")
		for _, overlap := range []int{0, 2, 4, 6, 8} {
			cfg := pipeline.DefaultConfig()
			cfg.SquashTrigger = pipeline.TriggerL1Miss
			cfg.RefetchOverlap = overlap
			res, err := core.Run(core.Config{Workload: bench.Params, Pipeline: cfg, Commits: benchCommits})
			if err != nil {
				b.Fatal(err)
			}
			t.AddRow(fmt.Sprintf("%d", overlap), report.F2(res.IPC),
				report.Pct(res.Report.SDCAVF()),
				report.F2(res.IPC/res.Report.SDCAVF()))
		}
		printTable("ablation-overlap", t)
	}
}

// BenchmarkAblationIQSize sweeps the instruction-queue size: exposure
// scales with the structure, a secondary observation behind the paper's
// motivation that error rates grow with device counts.
func BenchmarkAblationIQSize(b *testing.B) {
	bench, _ := spec.ByName("gzip-graphic")
	for i := 0; i < b.N; i++ {
		t := report.New("Ablation (regenerated): IQ size (gzip-graphic, baseline)",
			"IQ entries", "IPC", "SDC AVF", "idle")
		for _, size := range []int{16, 32, 64, 128} {
			cfg := pipeline.DefaultConfig()
			cfg.IQSize = size
			res, err := core.Run(core.Config{Workload: bench.Params, Pipeline: cfg, Commits: benchCommits})
			if err != nil {
				b.Fatal(err)
			}
			t.AddRow(fmt.Sprintf("%d", size), report.F2(res.IPC),
				report.Pct(res.Report.SDCAVF()), report.Pct(res.Report.IdleFraction()))
		}
		printTable("ablation-iqsize", t)
	}
}

// BenchmarkAblationOutOfOrder contrasts the paper's in-order machine with
// an out-of-order issue variant (§3.1: the squashing trade-off is
// "similar, though not as pronounced, for out-of-order machines" — less
// state pools behind misses, so squashing has less exposure to remove).
func BenchmarkAblationOutOfOrder(b *testing.B) {
	bench, _ := spec.ByName("mcf")
	for i := 0; i < b.N; i++ {
		t := report.New("Ablation (regenerated): in-order vs out-of-order (mcf)",
			"machine", "policy", "IPC", "SDC AVF", "IPC/SDC")
		for _, ooo := range []bool{false, true} {
			for _, trig := range []pipeline.Trigger{pipeline.TriggerNone, pipeline.TriggerL1Miss} {
				cfg := pipeline.DefaultConfig()
				cfg.OutOfOrder = ooo
				cfg.SquashTrigger = trig
				res, err := core.Run(core.Config{Workload: bench.Params, Pipeline: cfg, Commits: benchCommits})
				if err != nil {
					b.Fatal(err)
				}
				machine := "in-order"
				if ooo {
					machine = "out-of-order"
				}
				t.AddRow(machine, trig.String(), report.F2(res.IPC),
					report.Pct(res.Report.SDCAVF()),
					report.F2(res.IPC/res.Report.SDCAVF()))
			}
		}
		printTable("ablation-ooo", t)
	}
}
