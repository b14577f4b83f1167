package fault

import (
	"math"
	"testing"

	"softerror/internal/ace"
	"softerror/internal/cache"
	"softerror/internal/isa"
	"softerror/internal/pibit"
	"softerror/internal/pipeline"
	"softerror/internal/workload"
)

// sharedTrace runs one moderate simulation reused across campaign tests.
var sharedTrace *pipeline.Trace
var sharedDead *ace.Deadness
var sharedReport *ace.Report

func setup(t testing.TB) (*pipeline.Trace, *ace.Deadness, *ace.Report) {
	t.Helper()
	if sharedTrace == nil {
		gen := workload.MustNew(workload.Default())
		mem := cache.MustNewDefault()
		workload.WarmCaches(mem)
		p := pipeline.MustNew(pipeline.DefaultConfig(), gen, mem)
		sharedTrace = p.Run(60000, true)
		sharedReport = ace.Analyze(sharedTrace)
		sharedDead = sharedReport.Dead
	}
	return sharedTrace, sharedDead, sharedReport
}

func TestRunRejectsBadConfig(t *testing.T) {
	tr, dead, _ := setup(t)
	inj := NewInjector(tr, dead)
	if _, err := inj.Run(Config{Strikes: 0}); err == nil {
		t.Fatal("zero strikes accepted")
	}
	empty := NewInjector(&pipeline.Trace{IQSize: 4}, dead)
	if _, err := empty.Run(Config{Strikes: 10}); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestCampaignDeterministic(t *testing.T) {
	tr, dead, _ := setup(t)
	inj := NewInjector(tr, dead)
	cfg := Config{Protection: cache.ProtParity, Level: ace.TrackCommit, Strikes: 2000, Seed: 9}
	a, err := inj.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := inj.Run(cfg)
	if a.Counts != b.Counts {
		t.Fatalf("non-deterministic campaign: %v vs %v", a.Counts, b.Counts)
	}
}

func TestUnprotectedSDCMatchesAnalyticAVF(t *testing.T) {
	tr, dead, rep := setup(t)
	inj := NewInjector(tr, dead)
	res, err := inj.Run(Config{Protection: cache.ProtNone, Strikes: 60000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, want := res.SDCFraction(), rep.SDCAVF()
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("Monte-Carlo SDC = %.4f, analytic AVF = %.4f", got, want)
	}
	if res.Counts[OutcomeFalseDUE]+res.Counts[OutcomeTrueDUE] != 0 {
		t.Fatal("unprotected queue cannot signal DUEs")
	}
}

func TestParityBaselineMatchesAnalyticDUE(t *testing.T) {
	tr, dead, rep := setup(t)
	inj := NewInjector(tr, dead)
	// Conservative baseline: any detected parity error is signalled.
	res, err := inj.Run(Config{Protection: cache.ProtParity, Level: ace.TrackNever, Strikes: 60000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.DUEFraction()-rep.DUEAVF()) > 0.02 {
		t.Fatalf("Monte-Carlo DUE = %.4f, analytic = %.4f", res.DUEFraction(), rep.DUEAVF())
	}
	if math.Abs(res.FalseDUEFraction()-rep.FalseDUEAVF()) > 0.02 {
		t.Fatalf("Monte-Carlo false DUE = %.4f, analytic = %.4f",
			res.FalseDUEFraction(), rep.FalseDUEAVF())
	}
	if res.Counts[OutcomeSDC] != 0 {
		t.Fatal("parity queue cannot produce SDC under single-bit faults")
	}
}

func TestTrackingNeverSuppressesTrueErrors(t *testing.T) {
	tr, dead, _ := setup(t)
	inj := NewInjector(tr, dead)
	for lvl := ace.TrackNever; lvl <= ace.TrackMemory; lvl++ {
		res, err := inj.Run(Config{Protection: cache.ProtParity, Level: lvl, Strikes: 20000, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if res.Counts[OutcomeMissedError] != 0 {
			t.Fatalf("level %v suppressed %d true errors", lvl, res.Counts[OutcomeMissedError])
		}
	}
}

func TestFalseDUEMonotoneInLevel(t *testing.T) {
	tr, dead, _ := setup(t)
	inj := NewInjector(tr, dead)
	prev := math.Inf(1)
	for lvl := ace.TrackNever; lvl <= ace.TrackMemory; lvl++ {
		res, err := inj.Run(Config{Protection: cache.ProtParity, Level: lvl, Strikes: 40000, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		f := res.FalseDUEFraction()
		if f > prev+0.01 {
			t.Fatalf("false DUE increased at level %v: %.4f -> %.4f", lvl, prev, f)
		}
		prev = f
	}
	if prev > 0.01 {
		t.Fatalf("full memory tracking left %.4f false DUE, want ~0", prev)
	}
}

func TestTrueDUEPreservedAcrossLevels(t *testing.T) {
	// Tracking may defer true errors (latent) but must never lose them to
	// SDC; true DUE + latent-from-ACE stays roughly stable.
	tr, dead, _ := setup(t)
	inj := NewInjector(tr, dead)
	base, _ := inj.Run(Config{Protection: cache.ProtParity, Level: ace.TrackNever, Strikes: 40000, Seed: 5})
	full, _ := inj.Run(Config{Protection: cache.ProtParity, Level: ace.TrackMemory, Strikes: 40000, Seed: 5})
	baseTrue := base.Frac(OutcomeTrueDUE)
	fullTrue := full.Frac(OutcomeTrueDUE) + full.Frac(OutcomeLatent)
	if fullTrue < baseTrue-0.02 {
		t.Fatalf("true-error accounting shrank: baseline %.4f, full tracking true+latent %.4f",
			baseTrue, fullTrue)
	}
}

func TestPETLevelBetweenAntiPiAndRegFile(t *testing.T) {
	tr, dead, _ := setup(t)
	inj := NewInjector(tr, dead)
	run := func(lvl ace.TrackLevel) float64 {
		res, err := inj.Run(Config{Protection: cache.ProtParity, Level: lvl, Strikes: 40000, Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		return res.FalseDUEFraction()
	}
	anti := run(ace.TrackAntiPi)
	pet := run(ace.TrackPET)
	reg := run(ace.TrackRegFile)
	if !(pet <= anti+0.005 && reg <= pet+0.005) {
		t.Fatalf("PET coverage not between anti-π and regfile: %.4f %.4f %.4f", anti, pet, reg)
	}
}

func TestOutcomeString(t *testing.T) {
	for o := Outcome(0); o < NumOutcomes; o++ {
		if o.String() == "" {
			t.Errorf("outcome %d has empty name", o)
		}
	}
	if Outcome(99).String() == "" {
		t.Error("unknown outcome should render")
	}
}

func TestResultFracEmpty(t *testing.T) {
	var r Result
	if r.Frac(OutcomeSDC) != 0 || r.SDCFraction() != 0 || r.DUEFraction() != 0 {
		t.Fatal("empty result should report zero fractions")
	}
}

func TestMemoryLevelCoversAllFalseErrors(t *testing.T) {
	// The paper's headline claim for §4: with π bits through the memory
	// system, 100% of false DUE events are covered. Exhaustively check
	// every committed instruction and field whose ground truth is un-ACE:
	// the engine must never signal (suppressed or still-latent are fine).
	tr, dead, _ := setup(t)
	eng := &pibit.Engine{Level: ace.TrackMemory, PETEntries: 512, Window: pibit.DefaultWindow}
	ix := pibit.NewIndex(tr.CommitLog)
	checked := 0
	for i := range tr.CommitLog {
		in := &tr.CommitLog[i]
		cat := dead.OfPos(i)
		if cat == ace.CatACE {
			continue
		}
		for f := isa.Field(0); f < isa.NumFields; f++ {
			if ace.BitACE(cat, f, in.Dest != isa.RegNone) {
				continue // truth-ACE bits may legitimately signal
			}
			if v := eng.Process(ix, i, f); v == pibit.VerdictSignalled {
				t.Fatalf("false error signalled at full tracking: cat=%v field=%v inst=%v", cat, f, in)
			}
			checked++
		}
		if checked > 60_000 {
			break // plenty of population; keep the test fast
		}
	}
	if checked < 10_000 {
		t.Fatalf("only %d un-ACE (instruction, field) pairs checked", checked)
	}
}

func TestFrontEndInjectorCampaign(t *testing.T) {
	// Chunk-granularity π bits (§4.2): strikes on the fetch buffer are
	// detected at delivery to decode and resolve through the same
	// commit-path machinery. The taxonomy invariants must hold there too.
	tr, dead, _ := setup(t)
	inj := NewFrontEndInjector(tr, dead)

	unprot, err := inj.Run(Config{Protection: cache.ProtNone, Strikes: 30000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if unprot.SDCFraction() <= 0 {
		t.Fatal("front-end strikes should produce SDC on an unprotected buffer")
	}
	fe := ace.AnalyzeFrontEnd(tr, dead)
	if got, want := unprot.SDCFraction(), fe.SDCAVF(); math.Abs(got-want) > 0.02 {
		t.Fatalf("front-end Monte-Carlo SDC %.4f vs analytic %.4f", got, want)
	}

	prev := math.Inf(1)
	for lvl := ace.TrackNever; lvl <= ace.TrackMemory; lvl++ {
		res, err := inj.Run(Config{Protection: cache.ProtParity, Level: lvl, Strikes: 30000, Seed: 12})
		if err != nil {
			t.Fatal(err)
		}
		if res.Counts[OutcomeMissedError] != 0 {
			t.Fatalf("front-end level %v missed %d true errors", lvl, res.Counts[OutcomeMissedError])
		}
		f := res.FalseDUEFraction()
		if f > prev+0.01 {
			t.Fatalf("front-end false DUE increased at level %v", lvl)
		}
		prev = f
	}
	if prev > 0.01 {
		t.Fatalf("full tracking left %.4f front-end false DUE", prev)
	}
}

func TestROBInjectorCampaign(t *testing.T) {
	// Reorder-buffer strikes (out-of-order family): retire is the read
	// point, only correct-path entries are ever read, and the commit-path
	// machinery resolves each strike exactly as for the IQ. The taxonomy
	// invariants must hold there too.
	cfg := pipeline.DefaultConfig()
	cfg.OutOfOrder = true
	gen := workload.MustNew(workload.Default())
	mem := cache.MustNewDefault()
	workload.WarmCaches(mem)
	tr := pipeline.MustNew(cfg, gen, mem).Run(60000, true)
	rep := ace.Analyze(tr)
	inj := NewROBInjector(tr, rep.Dead)

	unprot, err := inj.Run(Config{Protection: cache.ProtNone, Strikes: 30000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if unprot.SDCFraction() <= 0 {
		t.Fatal("ROB strikes should produce SDC on an unprotected buffer")
	}
	rob := ace.AnalyzeROB(tr, rep.Dead)
	if got, want := unprot.SDCFraction(), rob.SDCAVF(); math.Abs(got-want) > 0.02 {
		t.Fatalf("ROB Monte-Carlo SDC %.4f vs analytic %.4f", got, want)
	}

	prev := math.Inf(1)
	for lvl := ace.TrackNever; lvl <= ace.TrackMemory; lvl++ {
		res, err := inj.Run(Config{Protection: cache.ProtParity, Level: lvl, Strikes: 30000, Seed: 14})
		if err != nil {
			t.Fatal(err)
		}
		if res.Counts[OutcomeMissedError] != 0 {
			t.Fatalf("ROB level %v missed %d true errors", lvl, res.Counts[OutcomeMissedError])
		}
		f := res.FalseDUEFraction()
		if f > prev+0.01 {
			t.Fatalf("ROB false DUE increased at level %v", lvl)
		}
		prev = f
	}
	if prev > 0.01 {
		t.Fatalf("full tracking left %.4f ROB false DUE", prev)
	}
}

func TestStdErr(t *testing.T) {
	r := &Result{Strikes: 10000}
	r.Counts[OutcomeSDC] = 2500 // p = 0.25
	se := r.StdErr(OutcomeSDC)
	want := math.Sqrt(0.25 * 0.75 / 10000)
	if math.Abs(se-want) > 1e-9 {
		t.Fatalf("StdErr = %v, want %v", se, want)
	}
	var empty Result
	if empty.StdErr(OutcomeSDC) != 0 {
		t.Fatal("empty result should have zero stderr")
	}
	// The campaign estimates must sit within ~4 sigma of the analytic AVF.
	tr, dead, rep := setup(t)
	inj := NewInjector(tr, dead)
	res, err := inj.Run(Config{Protection: cache.ProtNone, Strikes: 50000, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	diff := math.Abs(res.SDCFraction() - rep.SDCAVF())
	if diff > 4*res.StdErr(OutcomeSDC)+1e-9 {
		t.Fatalf("Monte-Carlo SDC off by %v, > 4 sigma (%v)", diff, res.StdErr(OutcomeSDC))
	}
}

// TestCellsNearMaxInt: a strike count near math.MaxInt must split into
// cells without overflow, its last cell ending exactly at the count.
func TestCellsNearMaxInt(t *testing.T) {
	c := &Campaign{Configs: []Config{{Strikes: 3}, {Strikes: math.MaxInt}}}
	want := 1 + math.MaxInt/DefaultChunk + 1
	if got := c.Cells(); got != want {
		t.Fatalf("Cells = %d, want %d", got, want)
	}
	if ci, lo, hi := c.cell(want - 1); ci != 1 || hi != math.MaxInt || hi-lo != math.MaxInt%DefaultChunk {
		t.Fatalf("last cell = config %d [%d, %d), want config 1 ending at %d", ci, lo, hi, math.MaxInt)
	}
	if ci, lo, hi := c.cell(0); ci != 0 || lo != 0 || hi != 3 {
		t.Fatalf("first cell = config %d [%d, %d), want config 0 [0, 3)", ci, lo, hi)
	}
}
