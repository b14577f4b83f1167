package core

import (
	"math"
	"strings"
	"testing"

	"softerror/internal/ace"
	"softerror/internal/fault"
	"softerror/internal/isa"
	"softerror/internal/pipeline"
	"softerror/internal/spec"
	"softerror/internal/workload"
)

// testSuite keeps runs small: four contrasting benchmarks, short commits.
func testSuite(t testing.TB) *Suite {
	t.Helper()
	pick := []string{"gzip-graphic", "mcf", "ammp", "sixtrack"}
	var benches []spec.Benchmark
	for _, name := range pick {
		b, ok := spec.ByName(name)
		if !ok {
			t.Fatalf("benchmark %s missing", name)
		}
		benches = append(benches, b)
	}
	return NewSuite(benches, 30_000)
}

func TestPolicyStringsAndApply(t *testing.T) {
	for p := Policy(0); p < NumPolicies; p++ {
		if p.String() == "" {
			t.Errorf("policy %d has no name", p)
		}
	}
	if Policy(99).String() == "" {
		t.Error("unknown policy should render")
	}
	if !strings.Contains(PolicySquashL1.String(), "L1") {
		t.Error("squash-L1 name should mention L1")
	}
}

func TestRunDefaultsAndValidation(t *testing.T) {
	p := workload.Default()
	p.MeanBlockLen = 0
	if _, err := Run(Config{Workload: p}); err == nil {
		t.Fatal("invalid workload accepted")
	}
	res, err := Run(Config{Workload: workload.Default(), Commits: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 || res.Report == nil {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.Trace != nil {
		t.Fatal("trace retained without KeepTrace")
	}
	kept, err := Run(Config{Workload: workload.Default(), Commits: 5000, KeepTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if kept.Trace == nil {
		t.Fatal("KeepTrace did not retain the trace")
	}
}

// countSink tallies every event kind a run delivers.
type countSink struct{ res, fe, sb, commits, rob, lsq int }

func (c *countSink) OnResidency(pipeline.Residency)    { c.res++ }
func (c *countSink) OnFrontEnd(pipeline.Residency)     { c.fe++ }
func (c *countSink) OnStoreBuffer(pipeline.Residency)  { c.sb++ }
func (c *countSink) OnCommit(isa.Inst, uint64, uint64) { c.commits++ }
func (c *countSink) OnROB(pipeline.Residency)          { c.rob++ }
func (c *countSink) OnLSQ(pipeline.Residency)          { c.lsq++ }

// TestSinkSeesEventsUnderKeepTrace pins that Config.Sink receives the run's
// whole event stream whether or not KeepTrace also records it, on a
// shared-stream lane and on a private-source lane (a gshare workload), for
// both core families — and that the totals match the trace KeepTrace
// recorded.
func TestSinkSeesEventsUnderKeepTrace(t *testing.T) {
	gshare := workload.Default()
	gshare.BranchPredictor = "gshare"
	for _, w := range []workload.Params{workload.Default(), gshare} {
		for _, ooo := range []bool{false, true} {
			pcfg := pipeline.DefaultConfig()
			pcfg.OutOfOrder = ooo
			var counts [2]countSink
			var tr *pipeline.Trace
			for i, keep := range []bool{false, true} {
				res, err := Run(Config{Workload: w, Pipeline: pcfg, Commits: 4000, KeepTrace: keep, Sink: &counts[i]})
				if err != nil {
					t.Fatal(err)
				}
				tr = res.Trace
			}
			if counts[0] != counts[1] {
				t.Fatalf("%s ooo=%v: sink totals %+v without KeepTrace, %+v with it",
					w.BranchPredictor, ooo, counts[0], counts[1])
			}
			c := counts[1]
			if c.res != len(tr.Residencies) || c.fe != len(tr.FrontEnd) || c.sb != len(tr.StoreBuffer) ||
				c.commits != len(tr.CommitLog) || c.rob != len(tr.ROB) || c.lsq != len(tr.LSQ) {
				t.Fatalf("%s ooo=%v: sink totals %+v disagree with the recorded trace", w.BranchPredictor, ooo, c)
			}
			if c.commits == 0 || (ooo && c.rob == 0) {
				t.Fatalf("%s ooo=%v: sink saw no events: %+v", w.BranchPredictor, ooo, c)
			}
		}
	}
}

func TestSuiteMemoises(t *testing.T) {
	s := testSuite(t)
	b := s.Benches[0]
	r1, err := s.Result(b, PolicyBaseline)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Result(b, PolicyBaseline)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("suite did not memoise")
	}
}

func TestTable1Shape(t *testing.T) {
	s := testSuite(t)
	rows, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("Table1 has %d rows, want 3", len(rows))
	}
	base, l1, l0 := rows[0], rows[1], rows[2]

	// The paper's Table-1 shape: squashing reduces both AVFs; the L0
	// trigger reduces them further but costs distinctly more IPC; the L1
	// trigger's merit (MITF proxy) improves on the baseline.
	if !(l1.SDCAVF < base.SDCAVF && l0.SDCAVF < l1.SDCAVF) {
		t.Errorf("SDC AVF ordering wrong: %.3f, %.3f, %.3f", base.SDCAVF, l1.SDCAVF, l0.SDCAVF)
	}
	if !(l1.DUEAVF < base.DUEAVF && l0.DUEAVF < l1.DUEAVF) {
		t.Errorf("DUE AVF ordering wrong: %.3f, %.3f, %.3f", base.DUEAVF, l1.DUEAVF, l0.DUEAVF)
	}
	if l0.IPC >= l1.IPC {
		t.Errorf("L0 squashing should cost more IPC than L1: %.3f vs %.3f", l0.IPC, l1.IPC)
	}
	l1Loss := 1 - l1.IPC/base.IPC
	l0Loss := 1 - l0.IPC/base.IPC
	// The 4-benchmark test subset over-weights memory-bound codes (mcf,
	// ammp); the full-roster loss is ~2% but allow up to 10% here.
	if l1Loss > 0.10 {
		t.Errorf("L1 squash IPC loss %.1f%%, want small", l1Loss*100)
	}
	if l0Loss < 2*l1Loss {
		t.Errorf("L0 squash IPC loss (%.1f%%) should clearly exceed L1's (%.1f%%)",
			l0Loss*100, l1Loss*100)
	}
	if l1.MeritSDC <= base.MeritSDC {
		t.Errorf("L1 squash merit %.2f should beat baseline %.2f", l1.MeritSDC, base.MeritSDC)
	}
	// DUE AVF must exceed SDC AVF everywhere (false DUE adds to true).
	for _, r := range rows {
		if r.DUEAVF <= r.SDCAVF {
			t.Errorf("%v: DUE %.3f <= SDC %.3f", r.Policy, r.DUEAVF, r.SDCAVF)
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	s := testSuite(t)
	rows, err := s.Figure2(512)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(s.Benches) {
		t.Fatalf("Figure2 rows = %d, want %d", len(rows), len(s.Benches))
	}
	for _, r := range rows {
		if r.BaseFalseDUE <= 0 {
			t.Errorf("%s: no false DUE", r.Bench)
		}
		prev := r.BaseFalseDUE
		for i, rem := range r.Remaining {
			if rem > prev+1e-12 {
				t.Errorf("%s: remaining false DUE increased at level %d", r.Bench, i)
			}
			prev = rem
		}
		if last := r.Remaining[len(r.Remaining)-1]; last != 0 {
			t.Errorf("%s: full stack leaves %.4f false DUE, want 0", r.Bench, last)
		}
		if r.CoveredFrac(len(r.Remaining)-1) != 1 {
			t.Errorf("%s: full coverage fraction != 1", r.Bench)
		}
	}
	// FP benchmarks get more of their coverage from the anti-π bit than
	// integer ones (the paper: 60% vs 35%).
	fp, intg := true, false
	fpMean := Figure2Mean(rows, &fp)
	intMean := Figure2Mean(rows, &intg)
	fpAnti := fpMean.CoveredFrac(1) - fpMean.CoveredFrac(0)
	intAnti := intMean.CoveredFrac(1) - intMean.CoveredFrac(0)
	if fpAnti <= intAnti {
		t.Errorf("anti-π coverage: FP %.3f should exceed INT %.3f", fpAnti, intAnti)
	}
	// Integer benchmarks get more from π-to-commit (wrong path).
	if intMean.CoveredFrac(0) <= fpMean.CoveredFrac(0) {
		t.Errorf("π-to-commit coverage: INT %.3f should exceed FP %.3f",
			intMean.CoveredFrac(0), fpMean.CoveredFrac(0))
	}
}

func TestFigure2MeanEmpty(t *testing.T) {
	if m := Figure2Mean(nil, nil); m.BaseFalseDUE != 0 {
		t.Fatal("empty mean should be zero")
	}
}

func TestFigure3Shape(t *testing.T) {
	s := testSuite(t)
	rows, err := s.Figure3(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(DefaultPETSizes) {
		t.Fatalf("Figure3 rows = %d, want %d", len(rows), len(DefaultPETSizes))
	}
	prev := Figure3Row{}
	for i, r := range rows {
		// Coverage is monotone in buffer size...
		if i > 0 && (r.FDDReg < prev.FDDReg || r.WithReturns < prev.WithReturns || r.WithMemory < prev.WithMemory) {
			t.Errorf("coverage not monotone at %d entries", r.Entries)
		}
		// ...and within [0,1].
		for _, v := range []float64{r.FDDReg, r.WithReturns, r.WithMemory} {
			if v < 0 || v > 1 {
				t.Errorf("coverage %v out of range at %d entries", v, r.Entries)
			}
		}
		prev = r
	}
	// The paper: a 512-entry PET covers a minority of FDD instructions;
	// ~10k entries cover most of them (returns make the difference).
	var at512, at16k Figure3Row
	for _, r := range rows {
		if r.Entries == 512 {
			at512 = r
		}
		if r.Entries == 16384 {
			at16k = r
		}
	}
	if at512.FDDReg < 0.05 || at512.FDDReg > 0.80 {
		t.Errorf("512-entry PET covers %.2f of FDD-reg, want a partial fraction", at512.FDDReg)
	}
	if at16k.WithReturns < 0.75 {
		t.Errorf("16k-entry PET with returns covers only %.2f, want most", at16k.WithReturns)
	}
	if at512.WithReturns > at512.FDDReg+1e-12 == false && at16k.WithReturns <= at16k.FDDReg-1e-12 {
		t.Error("return-dead population should change the curve")
	}
}

func TestFigure4Shape(t *testing.T) {
	s := testSuite(t)
	rows, err := s.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	var relSDC, relDUE, relIPC []float64
	var ammp Figure4Row
	for _, r := range rows {
		if r.RelSDC <= 0 || r.RelSDC > 1.05 {
			t.Errorf("%s: RelSDC = %.3f out of range", r.Bench, r.RelSDC)
		}
		if r.RelDUE <= 0 || r.RelDUE > 1.05 {
			t.Errorf("%s: RelDUE = %.3f out of range", r.Bench, r.RelDUE)
		}
		relSDC = append(relSDC, r.RelSDC)
		relDUE = append(relDUE, r.RelDUE)
		relIPC = append(relIPC, r.RelIPC)
		if r.Bench == "ammp" {
			ammp = r
		}
	}
	// Combined techniques: DUE reduction must beat the SDC-only reduction
	// (π tracking removes the false component on top of squashing).
	if GeoMean(relDUE) >= GeoMean(relSDC) {
		t.Errorf("mean RelDUE %.3f should be below mean RelSDC %.3f",
			GeoMean(relDUE), GeoMean(relSDC))
	}
	// IPC cost stays small on average.
	if m := GeoMean(relIPC); m < 0.90 {
		t.Errorf("mean relative IPC %.3f, want > 0.90", m)
	}
	// ammp is the paper's squash outlier: far better than the average.
	if ammp.RelSDC >= GeoMean(relSDC) {
		t.Errorf("ammp RelSDC %.3f should beat the mean %.3f", ammp.RelSDC, GeoMean(relSDC))
	}
}

func TestBreakdownSumsToOne(t *testing.T) {
	s := testSuite(t)
	rows, err := s.Breakdown()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		sum := r.Idle + r.NeverRead + r.ExACE + r.UnACE + r.ACE
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: occupancy classes sum to %.6f", r.Bench, sum)
		}
		if r.ACE <= 0 || r.Idle <= 0 {
			t.Errorf("%s: degenerate breakdown %+v", r.Bench, r)
		}
	}
}

func TestOutcomesCampaign(t *testing.T) {
	b, _ := spec.ByName("gzip-graphic")
	rows, err := Outcomes(b, 20_000, 5_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2+len(TrackingLevels) {
		t.Fatalf("Outcomes rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Strikes != 5000 {
			t.Errorf("%s: strikes = %d", r.Label, r.Strikes)
		}
		if r.Counts[fault.OutcomeMissedError] != 0 {
			t.Errorf("%s: missed errors present", r.Label)
		}
	}
	// Unprotected: no DUEs; parity: no SDC.
	unprot, parity := rows[0], rows[1]
	if unprot.Counts[fault.OutcomeTrueDUE]+unprot.Counts[fault.OutcomeFalseDUE] != 0 {
		t.Error("unprotected campaign signalled DUEs")
	}
	if parity.Counts[fault.OutcomeSDC] != 0 {
		t.Error("parity campaign produced SDC")
	}
	if unprot.Counts[fault.OutcomeSDC] == 0 {
		t.Error("unprotected campaign produced no SDC at all")
	}
}

func TestThrottleAblation(t *testing.T) {
	s := testSuite(t)
	rows, err := s.ThrottleAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("ablation rows = %d, want 5", len(rows))
	}
	byPolicy := map[Policy]AblationRow{}
	for _, r := range rows {
		byPolicy[r.Policy] = r
	}
	// The paper's finding (§3.1): throttling gives no significant AVF
	// reduction beyond squashing — squashing must beat it clearly, and
	// throttling must not make the AVF significantly worse than baseline.
	if byPolicy[PolicySquashL1].SDCAVF >= byPolicy[PolicyThrottleL1].SDCAVF {
		t.Errorf("squash-L1 SDC %.3f should beat throttle-L1 %.3f",
			byPolicy[PolicySquashL1].SDCAVF, byPolicy[PolicyThrottleL1].SDCAVF)
	}
	if byPolicy[PolicyThrottleL1].SDCAVF > byPolicy[PolicyBaseline].SDCAVF+0.03 {
		t.Errorf("throttle-L1 SDC %.3f should not exceed baseline %.3f by much",
			byPolicy[PolicyThrottleL1].SDCAVF, byPolicy[PolicyBaseline].SDCAVF)
	}
	if byPolicy[PolicySquashL0].SDCAVF >= byPolicy[PolicyThrottleL0].SDCAVF {
		t.Errorf("squash-L0 SDC %.3f should beat throttle-L0 %.3f",
			byPolicy[PolicySquashL0].SDCAVF, byPolicy[PolicyThrottleL0].SDCAVF)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Fatalf("GeoMean(1,4) = %v", g)
	}
	if g := GeoMean([]float64{0, -1}); g != 0 {
		t.Fatalf("GeoMean of non-positive values = %v", g)
	}
}

func TestDeadnessCompact(t *testing.T) {
	s := testSuite(t)
	r, err := s.Result(s.Benches[0], PolicyBaseline)
	if err != nil {
		t.Fatal(err)
	}
	// After Compact (done by the suite), OfPos falls back conservatively
	// while the counts survive.
	d := r.Report.Dead
	if d == nil {
		t.Fatal("no deadness on report")
	}
	if d.Committed() == 0 || d.DeadFraction() == 0 {
		t.Fatalf("compacted deadness lost its counts: %d committed, dead fraction %v", d.Committed(), d.DeadFraction())
	}
	for i := 0; i < int(d.Committed()); i++ {
		if got := d.OfPos(i); got != ace.CatACE {
			t.Fatalf("compacted OfPos(%d) = %v, want ACE", i, got)
		}
	}
}
