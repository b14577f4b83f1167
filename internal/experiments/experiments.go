// Package experiments builds the paper's evaluation artefacts — Table 1,
// Table 2, Figures 1-4, the §4.1 occupancy breakdown, the throttling
// ablation, the protection comparison, the register-file extension and the
// SimPoint sensitivity study — as report.Tables from a shared parameter
// set.
//
// It is the single rendering path behind both cmd/repro and the seratd
// evaluation service: because both call Build and Emit with the same
// Params, a served response is byte-identical to the CLI's output for the
// same request — which is what makes the service's content-addressed
// result cache sound.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"softerror/internal/checkpoint"
	"softerror/internal/core"
	"softerror/internal/fault"
	"softerror/internal/report"
	"softerror/internal/spec"
)

// Params carries every knob the experiment drivers read. The zero value is
// not useful; fill Suite (for the roster-memoised experiments) and Benches
// (for the campaign experiments) plus the numeric knobs, whose defaults
// are Defaults.
type Params struct {
	// Suite runs every roster experiment but Table 2 and outcomes, with
	// its context and worker bound. It memoises the simulations shared by
	// Table 1, Figures 2-4, the breakdown and the ablation, and the
	// per-benchmark rows of the register-file and protection studies; the
	// SimPoint slices are not memoised.
	Suite *core.Suite
	// Benches is the roster of the experiments the suite does not run
	// (Table 2, outcomes); it must be the suite's roster.
	Benches []spec.Benchmark
	// Commits is the per-run commit budget.
	Commits uint64
	// PET is the PET-buffer entry count for Figure 2.
	PET int
	// RawFIT is the raw per-bit soft-error rate for the protection study.
	RawFIT float64
	// SimPoints is the slices-per-benchmark count for the sensitivity
	// study.
	SimPoints int
	// Strikes and Seed parameterise the fault-injection campaign.
	Strikes int
	Seed    uint64
	// Jobs bounds the outcome campaign's worker pool (0 = par default).
	Jobs int
	// Checkpoint, when non-nil, snapshots the outcomes campaign; open it
	// with the geometry from core.OutcomesPlan. Only cmd/repro threads
	// one — the service keeps jobs content-addressed instead.
	Checkpoint *checkpoint.File[fault.Result]
}

// Defaults holds the numeric knobs' defaults: cmd/repro's flag defaults,
// and what seratd fills in for an eval request that leaves a knob zero.
var Defaults = Params{
	Commits:   core.DefaultCommits,
	PET:       512,
	RawFIT:    0.001,
	SimPoints: 4,
	Strikes:   50_000,
	Seed:      1,
}

// Validate refuses the numeric knobs no experiment can run with: every
// count and rate must be non-negative, and the raw rate finite. Zero
// passes (seratd reads it as the default). cmd/repro and cmd/sersim refuse
// such flags with it, and seratd such eval requests.
func (p Params) Validate() error {
	switch {
	case p.PET < 0:
		return fmt.Errorf("pet must be non-negative, got %d", p.PET)
	case p.SimPoints < 0:
		return fmt.Errorf("simpoints must be non-negative, got %d", p.SimPoints)
	case p.Strikes < 0:
		return fmt.Errorf("strikes must be non-negative, got %d", p.Strikes)
	case p.RawFIT < 0 || math.IsNaN(p.RawFIT) || math.IsInf(p.RawFIT, 0):
		return fmt.Errorf("rawfit must be a finite non-negative rate, got %v", p.RawFIT)
	}
	return nil
}

// AllOrder is the emission order of the "all" meta-experiment (simpoints
// excluded, as in cmd/repro).
var AllOrder = []string{
	"table2", "table1", "breakdown", "fig2", "fig3", "fig4",
	"ablation", "protection", "regfile", "outcomes",
}

// Names returns the individual experiment names in AllOrder-then-extras
// order ("all" itself is not listed). "structures" needs an out-of-order
// suite and so, like "simpoints", stays out of AllOrder — the "all"
// artefact's bytes are pinned by results/repro_all.txt.
func Names() []string {
	return append(append([]string{}, AllOrder...), "simpoints", "structures")
}

// Valid reports whether name is a buildable experiment ("all" included).
func Valid(name string) bool {
	if name == "all" {
		return true
	}
	for _, n := range Names() {
		if n == name {
			return true
		}
	}
	return false
}

// Build constructs the named experiment's table.
func Build(ctx context.Context, name string, p Params) (*report.Table, error) {
	switch name {
	case "table1":
		return Table1(p.Suite)
	case "table2":
		return Table2(p.Benches), nil
	case "outcomes":
		return Outcomes(ctx, p)
	case "fig2":
		return Figure2(p.Suite, p.PET)
	case "fig3":
		return Figure3(p.Suite)
	case "fig4":
		return Figure4(p.Suite)
	case "breakdown":
		return Breakdown(p.Suite)
	case "ablation":
		return Ablation(p.Suite)
	case "protection":
		return Protection(p.Suite, p.RawFIT)
	case "regfile":
		return RegFile(p.Suite)
	case "simpoints":
		return SimPoints(p.Suite, p.SimPoints)
	case "structures":
		return Structures(p.Suite)
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q", name)
	}
}

// Emit writes a built table in one of cmd/repro's two output forms: CSV,
// or the aligned table followed by a blank line.
func Emit(w io.Writer, t *report.Table, csv bool) error {
	if csv {
		return t.CSV(w)
	}
	t.Fprint(w)
	_, err := fmt.Fprintln(w)
	return err
}

// Run builds and emits the named experiment — or, for "all", the AllOrder
// sequence — producing exactly the bytes cmd/repro prints for the same
// parameters. "all" first fills the suite in one walk over the roster
// (core.Suite.PrewarmAll), so that every benchmark is decoded once for all
// of its simulations; each artefact then builds from the memo.
func Run(ctx context.Context, w io.Writer, name string, p Params, csv bool) error {
	names := []string{name}
	if name == "all" {
		names = AllOrder
		if err := p.Suite.PrewarmAll(); err != nil {
			return err
		}
	}
	for _, n := range names {
		t, err := Build(ctx, n, p)
		if err != nil {
			return err
		}
		if err := Emit(w, t, csv); err != nil {
			return err
		}
	}
	return nil
}

// Table1 reports the impact of squashing on IPC and the IQ AVFs.
func Table1(s *core.Suite) (*report.Table, error) {
	rows, err := s.Table1()
	if err != nil {
		return nil, err
	}
	t := report.New("Table 1: impact of squashing on IPC and the IQ's SDC and DUE AVFs",
		"design point", "IPC", "SDC AVF", "DUE AVF", "IPC/SDC AVF", "IPC/DUE AVF")
	for _, r := range rows {
		t.AddRow(r.Policy.String(), report.F2(r.IPC), report.Pct(r.SDCAVF),
			report.Pct(r.DUEAVF), report.F2(r.MeritSDC), report.F2(r.MeritDUE))
	}
	return t, nil
}

// Structures reports the out-of-order family's extra structures (ROB, LSQ,
// TAGE tables) under the baseline and both squash triggers. The suite must
// have OutOfOrder set.
func Structures(s *core.Suite) (*report.Table, error) {
	rows, err := s.Structures()
	if err != nil {
		return nil, err
	}
	t := report.New("Out-of-order structures: squashing vs ROB, LSQ and TAGE vulnerability",
		"design point", "IPC", "ROB SDC", "ROB DUE", "LSQ SDC", "LSQ DUE", "TAGE false DUE")
	for _, r := range rows {
		t.AddRow(r.Policy.String(), report.F2(r.IPC), report.Pct(r.ROBSDC),
			report.Pct(r.ROBDUE), report.Pct(r.LSQSDC), report.Pct(r.LSQDUE),
			report.Pct(r.TAGEFalseDUE))
	}
	return t, nil
}

// Table2 lists the benchmark roster.
func Table2(benches []spec.Benchmark) *report.Table {
	t := report.New("Table 2: benchmark roster (synthetic SPEC CPU2000 stand-ins)",
		"benchmark", "suite", "skipped (M)")
	for _, b := range benches {
		kind := "INT"
		if b.FP {
			kind = "FP"
		}
		t.AddRow(b.Name, kind, fmt.Sprintf("%d", b.SkippedM))
	}
	return t
}

// Outcomes runs the Figure-1 fault-injection campaign on the first roster
// benchmark, restoring and recording cells through p.Checkpoint when set.
func Outcomes(ctx context.Context, p Params) (*report.Table, error) {
	if len(p.Benches) == 0 {
		return nil, fmt.Errorf("experiments: outcomes needs at least one benchmark")
	}
	b := p.Benches[0]
	rows, err := core.OutcomesCampaign(ctx, b, p.Commits, p.Strikes, p.Seed, p.Jobs, p.Checkpoint)
	if err != nil {
		return nil, err
	}
	return OutcomesTable(fmt.Sprintf("Figure 1: fault-outcome taxonomy (%s, %d strikes)", b.Name, p.Strikes), rows), nil
}

// OutcomesTable renders fault-injection tallies in Figure 1's taxonomy,
// one row per configuration, each outcome as a share of its strikes.
func OutcomesTable(title string, rows []core.OutcomeRow) *report.Table {
	t := report.New(title,
		"configuration", "idle", "never-read", "benign", "SDC", "false DUE", "true DUE", "suppressed", "latent")
	for _, r := range rows {
		frac := func(o fault.Outcome) string {
			return report.Pct(float64(r.Counts[o]) / float64(r.Strikes))
		}
		t.AddRow(r.Label, frac(fault.OutcomeIdle), frac(fault.OutcomeNeverRead),
			frac(fault.OutcomeBenignUnACE), frac(fault.OutcomeSDC),
			frac(fault.OutcomeFalseDUE), frac(fault.OutcomeTrueDUE),
			frac(fault.OutcomeSuppressed), frac(fault.OutcomeLatent))
	}
	return t
}

// Figure2 reports the false-DUE AVF remaining after cumulative tracking.
func Figure2(s *core.Suite, pet int) (*report.Table, error) {
	rows, err := s.Figure2(pet)
	if err != nil {
		return nil, err
	}
	t := report.New(fmt.Sprintf("Figure 2: false-DUE AVF remaining after cumulative tracking (PET=%d)", pet),
		"benchmark", "base", "pi-commit", "anti-pi", "pet", "pi-regfile", "pi-storebuf", "pi-memory")
	addRow := func(r core.Figure2Row) {
		cells := []string{r.Bench, report.Pct(r.BaseFalseDUE)}
		for _, rem := range r.Remaining {
			cells = append(cells, report.Pct(rem))
		}
		t.AddRow(cells...)
	}
	for _, r := range rows {
		addRow(r)
	}
	intOnly, fpOnly := false, true
	mi := core.Figure2Mean(rows, &intOnly)
	mi.Bench = "mean-INT"
	mf := core.Figure2Mean(rows, &fpOnly)
	mf.Bench = "mean-FP"
	ma := core.Figure2Mean(rows, nil)
	ma.Bench = "mean-ALL"
	for _, m := range []core.Figure2Row{mi, mf, ma} {
		addRow(m)
	}
	return t, nil
}

// Figure3 reports FDD coverage against the PET-buffer size.
func Figure3(s *core.Suite) (*report.Table, error) {
	rows, err := s.Figure3(nil)
	if err != nil {
		return nil, err
	}
	t := report.New("Figure 3: FDD coverage vs PET-buffer size",
		"entries", "FDD-reg", "+returns", "+memory")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.Entries), report.Pct(r.FDDReg),
			report.Pct(r.WithReturns), report.Pct(r.WithMemory))
	}
	return t, nil
}

// Figure4 reports the combined squash + π-tracking design point.
func Figure4(s *core.Suite) (*report.Table, error) {
	rows, err := s.Figure4()
	if err != nil {
		return nil, err
	}
	t := report.New("Figure 4: combined squash-L1 + pi-to-store tracking, relative to baseline",
		"benchmark", "rel SDC AVF", "rel DUE AVF", "rel IPC")
	var sdc, due, ipc []float64
	for _, r := range rows {
		t.AddRow(r.Bench, report.F3(r.RelSDC), report.F3(r.RelDUE), report.F3(r.RelIPC))
		sdc = append(sdc, r.RelSDC)
		due = append(due, r.RelDUE)
		ipc = append(ipc, r.RelIPC)
	}
	t.AddRow("geomean", report.F3(core.GeoMean(sdc)), report.F3(core.GeoMean(due)), report.F3(core.GeoMean(ipc)))
	return t, nil
}

// Breakdown reports the §4.1 IQ occupancy breakdown.
func Breakdown(s *core.Suite) (*report.Table, error) {
	rows, err := s.Breakdown()
	if err != nil {
		return nil, err
	}
	t := report.New("Occupancy breakdown of the IQ (section 4.1)",
		"benchmark", "idle", "never-read", "Ex-ACE", "un-ACE", "ACE")
	var idle, nr, ex, un, ace float64
	for _, r := range rows {
		t.AddRow(r.Bench, report.Pct(r.Idle), report.Pct(r.NeverRead),
			report.Pct(r.ExACE), report.Pct(r.UnACE), report.Pct(r.ACE))
		idle += r.Idle
		nr += r.NeverRead
		ex += r.ExACE
		un += r.UnACE
		ace += r.ACE
	}
	n := float64(len(rows))
	t.AddRow("mean", report.Pct(idle/n), report.Pct(nr/n), report.Pct(ex/n),
		report.Pct(un/n), report.Pct(ace/n))
	return t, nil
}

// Ablation compares squashing against fetch throttling (§3.1).
func Ablation(s *core.Suite) (*report.Table, error) {
	rows, err := s.ThrottleAblation()
	if err != nil {
		return nil, err
	}
	t := report.New("Ablation: squashing vs fetch throttling (section 3.1)",
		"design point", "IPC", "SDC AVF", "IPC/SDC AVF")
	for _, r := range rows {
		t.AddRow(r.Policy.String(), report.F2(r.IPC), report.Pct(r.SDCAVF), report.F2(r.MeritSDC))
	}
	return t, nil
}

// Protection reports the absolute SDC/DUE rates across protection schemes.
func Protection(s *core.Suite, rawFIT float64) (*report.Table, error) {
	rows, err := s.Protection(rawFIT)
	if err != nil {
		return nil, err
	}
	t := report.New(fmt.Sprintf("Protection design space for the IQ at %.4f FIT/bit", rawFIT),
		"scheme", "SDC rate", "DUE rate")
	for _, r := range rows {
		t.AddRow(r.Scheme, r.SDCFIT.String(), r.DUEFIT.String())
	}
	return t, nil
}

// RegFile reports the register-file vulnerability across the roster.
func RegFile(s *core.Suite) (*report.Table, error) {
	rows, err := s.RegFile()
	if err != nil {
		return nil, err
	}
	t := report.New("Register-file vulnerability across the roster (section 8 extension)",
		"benchmark", "SDC AVF", "false DUE", "Ex-ACE", "untouched")
	var sdc, fd float64
	for _, r := range rows {
		t.AddRow(r.Bench, report.Pct(r.SDCAVF), report.Pct(r.FalseDUEAVF),
			report.Pct(r.ExACE), report.Pct(r.Untouched))
		sdc += r.SDCAVF
		fd += r.FalseDUEAVF
	}
	n := float64(len(rows))
	t.AddRow("mean", report.Pct(sdc/n), report.Pct(fd/n), "", "")
	return t, nil
}

// SimPoints reports AVF sensitivity to the SimPoint slice chosen (§5).
func SimPoints(s *core.Suite, n int) (*report.Table, error) {
	sums, err := s.SimPoints(core.PolicyBaseline, n)
	if err != nil {
		return nil, err
	}
	t := report.New(fmt.Sprintf("SimPoint sensitivity (%d slices per benchmark, baseline)", n),
		"benchmark", "IPC", "+/-", "SDC AVF", "+/-", "DUE AVF", "+/-")
	for _, sum := range sums {
		t.AddRow(sum.Bench,
			report.F2(sum.MeanIPC), report.F2(sum.StdIPC),
			report.Pct(sum.MeanSDCAVF), report.Pct(sum.StdSDCAVF),
			report.Pct(sum.MeanDUEAVF), report.Pct(sum.StdDUEAVF))
	}
	return t, nil
}
