// Command repro regenerates every table and figure of the paper's
// evaluation section:
//
//	repro table1     — Table 1: squashing vs IPC and SDC/DUE AVFs
//	repro table2     — Table 2: the benchmark roster
//	repro outcomes   — Figure 1: fault-outcome taxonomy (injection campaign)
//	repro fig2       — Figure 2: false-DUE coverage per tracking mechanism
//	repro fig3       — Figure 3: FDD coverage vs PET-buffer size
//	repro fig4       — Figure 4: combined squash + π tracking, per benchmark
//	repro breakdown  — §4.1 occupancy breakdown (idle/Ex-ACE/un-ACE/ACE)
//	repro ablation   — fetch throttling vs squashing (§3.1)
//	repro protection — absolute SDC/DUE rates across protection schemes (§2, §8)
//	repro regfile    — register-file AVFs across the roster (§8's extension)
//	repro simpoints  — AVF sensitivity to the SimPoint slice chosen (§5)
//	repro structures — ROB/LSQ/TAGE AVFs under squashing (-core ooo only)
//	repro all        — everything above (except simpoints and structures)
//
// The -core flag selects the core family: "inorder" (default) is the
// paper's machine, "ooo" swaps in the out-of-order family (reorder buffer
// with in-order retire, load/store queue with forwarding, TAGE predictor)
// for every suite-routed experiment, so the squash-vs-AVF trade-off can
// be re-asked on a machine whose window reorders.
//
// The table builders live in internal/experiments, shared with the seratd
// evaluation service: a served response is byte-identical to this command's
// output for the same parameters.
//
// Numbers come from the synthetic workload substrate, so absolute values
// differ from the paper's Asim/SPEC measurements; the shapes are the
// reproduction target (see EXPERIMENTS.md).
package main

import (
	"os"

	"softerror/internal/checkpoint"
	"softerror/internal/cli"
	"softerror/internal/core"
	"softerror/internal/experiments"
	"softerror/internal/fault"
	"softerror/internal/spec"
)

func main() {
	cli.Main("repro", run)
}

func run(args []string) error {
	d := cli.NewDriver("repro",
		"repro [flags] <table1|table2|outcomes|fig2|fig3|fig4|breakdown|ablation|protection|regfile|simpoints|structures|all>")
	fs := d.FS
	commits := fs.Uint64("commits", experiments.Defaults.Commits, "committed instructions per run")
	coreFam := fs.String("core", "inorder", "core family for suite-routed experiments: inorder or ooo")
	benchList := fs.String("benches", "", "comma-separated benchmark subset (default: all 26)")
	pet := fs.Int("pet", experiments.Defaults.PET, "PET buffer entries for fig2")
	rawFIT := fs.Float64("rawfit", experiments.Defaults.RawFIT, "raw soft-error rate per bit (FIT), for protection")
	simpoints := fs.Int("simpoints", experiments.Defaults.SimPoints, "slices per benchmark for simpoints")
	strikes := fs.Int("strikes", experiments.Defaults.Strikes, "fault-injection strikes for outcomes")
	seed := fs.Uint64("seed", experiments.Defaults.Seed, "fault-injection seed")
	csvOut := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	ckPath := fs.String("checkpoint", "", "snapshot the outcomes campaign to this file; removed on success")
	resume := fs.Bool("resume", false, "resume the outcomes campaign from an existing -checkpoint snapshot")
	prof := cli.NewProfile(fs)
	if err := d.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return cli.Usagef("exactly one experiment required")
	}
	if *resume && *ckPath == "" {
		return cli.Usagef("-resume requires -checkpoint")
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Stop()

	ctx, stop := cli.SignalContext()
	defer stop()

	benches, err := spec.ParseList(*benchList)
	if err != nil {
		return cli.Usagef("%v", err)
	}
	name := fs.Arg(0)
	if !experiments.Valid(name) {
		fs.Usage()
		return cli.Usagef("unknown experiment %q", name)
	}
	suite := core.NewSuite(benches, *commits)
	suite.Ctx = ctx
	switch *coreFam {
	case "inorder":
	case "ooo":
		suite.OutOfOrder = true
	default:
		return cli.Usagef("unknown core family %q (want inorder or ooo)", *coreFam)
	}
	p := experiments.Params{
		Suite:     suite,
		Benches:   benches,
		Commits:   *commits,
		PET:       *pet,
		RawFIT:    *rawFIT,
		SimPoints: *simpoints,
		Strikes:   *strikes,
		Seed:      *seed,
		Jobs:      d.Jobs(),
	}
	if err := p.Validate(); err != nil {
		return cli.Usagef("%v", err)
	}
	// A zero count would fail only after simulating.
	if *strikes == 0 || *simpoints == 0 {
		return cli.Usagef("-strikes and -simpoints must be positive")
	}
	// Only the outcomes campaign checkpoints; its geometry is a function of
	// the first roster benchmark and the strike budget.
	if *ckPath != "" && (name == "outcomes" || name == "all") {
		if len(benches) == 0 {
			return cli.Usagef("no benchmarks")
		}
		cells, fp := core.OutcomesPlan(benches[0], *commits, *strikes, *seed)
		ck, err := checkpoint.Open[fault.Result](*ckPath, "outcomes", fp, cells, *resume)
		if err != nil {
			return err
		}
		p.Checkpoint = ck
	}
	if err := experiments.Run(ctx, os.Stdout, name, p, *csvOut); err != nil {
		return cli.Partial(err, p.Checkpoint)
	}
	return p.Checkpoint.Remove()
}
