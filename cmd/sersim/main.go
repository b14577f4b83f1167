// Command sersim runs one benchmark through the simulator and prints the
// full vulnerability profile of its instruction queue: IPC, occupancy
// breakdown, SDC/DUE AVFs with the false-DUE decomposition by category,
// the absolute FIT/MTTF/MITF numbers implied by a raw per-bit error rate,
// and the effect of each π-bit tracking level.
//
// Example:
//
//	sersim -bench mcf -policy squash-l1 -commits 200000 -rawfit 0.001
//
// With -strikes N the run finishes with a Monte-Carlo fault-injection
// campaign on the traced queue (N strikes per protection configuration);
// -checkpoint/-resume snapshot and resume the campaign across interruptions
// with byte-identical tallies.
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 partial
// completion (campaign interrupted, checkpoint written).
package main

import (
	"context"
	"fmt"
	"math"
	"os"

	"softerror/internal/ace"
	"softerror/internal/checkpoint"
	"softerror/internal/cli"
	"softerror/internal/config"
	"softerror/internal/core"
	"softerror/internal/experiments"
	"softerror/internal/fault"
	"softerror/internal/isa"
	"softerror/internal/par"
	"softerror/internal/pipeline"
	"softerror/internal/report"
	"softerror/internal/serate"
	"softerror/internal/spec"
	"softerror/internal/workload"
)

func main() {
	cli.Main("sersim", run)
}

func run(args []string) error {
	d := cli.NewDriver("sersim", "sersim [flags]")
	fs := d.FS
	bench := fs.String("bench", "", "benchmark name from the Table-2 roster (default: the generic workload)")
	configPath := fs.String("config", "", "JSON experiment config (see internal/config); -bench/-policy still apply on top")
	policy := fs.String("policy", "baseline", "exposure policy: baseline, squash-l1, squash-l0, throttle-l1, throttle-l0")
	commits := fs.Uint64("commits", core.DefaultCommits, "committed instructions to simulate")
	rawFIT := fs.Float64("rawfit", 0.001, "raw soft-error rate per bit, in FIT")
	freq := fs.Float64("freq", 2.5e9, "clock frequency in Hz (the paper's part: 2.5 GHz)")
	pet := fs.Int("pet", 512, "PET buffer entries")
	strikes := fs.Int("strikes", 0, "also run a fault-injection campaign with this many strikes per configuration (0 = skip)")
	faultSeed := fs.Uint64("faultseed", 1, "fault-injection campaign seed")
	ckPath := fs.String("checkpoint", "", "snapshot the fault campaign to this file; removed on success")
	resume := fs.Bool("resume", false, "resume the fault campaign from an existing -checkpoint snapshot")
	if err := d.Parse(args); err != nil {
		return err
	}
	if *resume && *ckPath == "" {
		return cli.Usagef("-resume requires -checkpoint")
	}
	if *ckPath != "" && *strikes <= 0 {
		return cli.Usagef("-checkpoint requires -strikes")
	}
	if err := (experiments.Params{PET: *pet, RawFIT: *rawFIT, Strikes: *strikes}).Validate(); err != nil {
		return cli.Usagef("%v", err)
	}
	if !(*freq > 0) || math.IsInf(*freq, 0) {
		return cli.Usagef("freq must be a finite positive clock rate, got %v", *freq)
	}
	ctx, stop := cli.SignalContext()
	defer stop()

	params := workload.Default()
	pcfg := pipeline.DefaultConfig()
	runCommits := *commits
	if *configPath != "" {
		cfg, err := config.Load(*configPath)
		if err != nil {
			return err
		}
		params, pcfg = cfg.Workload, cfg.Pipeline
		if cfg.Commits != 0 {
			runCommits = cfg.Commits
		}
	}
	if *bench != "" {
		b, ok := spec.ByName(*bench)
		if !ok {
			return cli.Usagef("unknown benchmark %q; try one of %v", *bench, spec.Names())
		}
		params = b.Params
	}
	pol, err := core.ParsePolicy(*policy)
	if err != nil {
		return cli.Usagef("%v", err)
	}
	pol.Apply(&pcfg)
	// Residencies fold into the AVF integrals as they close and a fault
	// campaign records just what injection samples: no trace is kept.
	ccfg := core.Config{
		Workload: params, Pipeline: pcfg, Commits: runCommits,
		RegFile: true, FrontEnd: true, StoreBuffer: true,
	}
	var rec *fault.StreamRecorder
	if *strikes > 0 {
		rec = fault.NewStreamRecorder(runCommits)
		ccfg.Sink = rec
	}
	res, err := core.RunContext(ctx, ccfg)
	if err != nil {
		return err
	}
	rep := res.Report
	fe, sb := res.FrontEndReport, res.StoreBufferReport

	fmt.Printf("workload %s under %q: %d commits in %d cycles (IPC %.3f)\n",
		res.Name, pol, res.Commits, res.Cycles, res.IPC)
	fmt.Printf("load miss rates: L0 %.1f%%  L1 %.1f%%   squashes %d  refetches %d\n\n",
		100*res.LoadMissRateL0, 100*res.LoadMissRateL1, res.Squashes, res.Refetches)

	occ := report.New("IQ occupancy (fraction of bit-cycles)",
		"class", "fraction")
	occ.AddRow("idle", report.Pct(rep.IdleFraction()))
	occ.AddRow("never-read (squashed/flushed)", report.Pct(rep.NeverReadFraction()))
	occ.AddRow("Ex-ACE", report.Pct(rep.ExACEFraction()))
	occ.AddRow("valid un-ACE (false-DUE source)", report.Pct(rep.FalseDUEAVF()))
	occ.AddRow("ACE", report.Pct(rep.SDCAVF()))
	occ.AddRow("  of which control (Y-branch bound)", report.Pct(rep.YBranchBound()))
	occ.Fprint(os.Stdout)
	fmt.Println()

	cats := report.New("un-ACE composition (bit-cycle fractions)",
		"category", "fraction", "covered by")
	for c := ace.Category(1); c < ace.NumCategories; c++ {
		frac := float64(rep.UnACEBC[c]) / float64(rep.TotalBC())
		cats.AddRow(c.String(), report.Pct(frac), c.Track().String())
	}
	cats.Fprint(os.Stdout)
	fmt.Println()

	fields := report.New("per-field vulnerability (ACE share of each field's bit-cycles)",
		"field", "bits", "ACE share")
	for f := isa.Field(0); f < isa.NumFields; f++ {
		tot := rep.FieldACEBC[f] + rep.FieldUnACEBC[f]
		share := 0.0
		if tot > 0 {
			share = float64(rep.FieldACEBC[f]) / float64(tot)
		}
		fields.AddRow(f.String(), fmt.Sprintf("%d", isa.FieldBits[f]), report.Pct(share))
	}
	fields.Fprint(os.Stdout)
	fmt.Println()

	bits := float64(rep.Entries) * float64(isa.EntryPayloadBits)
	raw := serate.FIT(*rawFIT * bits)
	sdcFIT, dueFIT := serate.Rates([]serate.Device{
		{Name: "iq-unprotected", RawFIT: raw, SDCAVF: rep.SDCAVF()},
		{Name: "iq-parity", RawFIT: raw, DUEAVF: rep.DUEAVF()},
	})
	rates := report.New(fmt.Sprintf("absolute rates at %.4f FIT/bit x %.0f bits", *rawFIT, bits),
		"metric", "value")
	rates.AddRow("unprotected SDC", sdcFIT.String())
	rates.AddRow("parity DUE", dueFIT.String())
	rates.AddRow("SDC MITF", fmt.Sprintf("%.3g instructions",
		serate.MITFFromAVF(res.IPC, *freq, raw, rep.SDCAVF())))
	rates.AddRow("DUE MITF", fmt.Sprintf("%.3g instructions",
		serate.MITFFromAVF(res.IPC, *freq, raw, rep.DUEAVF())))
	rates.Fprint(os.Stdout)
	fmt.Println()

	lvls := report.New(fmt.Sprintf("false-DUE tracking (PET=%d entries)", *pet),
		"deployed through", "false DUE AVF", "total DUE AVF")
	lvls.AddRow("(none)", report.Pct(rep.FalseDUEAVF()), report.Pct(rep.DUEAVF()))
	for _, lvl := range core.TrackingLevels {
		remaining := rep.FalseDUERemaining(lvl, *pet)
		lvls.AddRow(lvl.String(), report.Pct(remaining), report.Pct(rep.TrueDUEAVF()+remaining))
	}
	lvls.Fprint(os.Stdout)
	fmt.Println()

	rf := res.RegFile
	reg := report.New("register-file vulnerability (int + fp + predicate files)",
		"class", "fraction")
	reg.AddRow("ACE (SDC AVF)", report.Pct(rf.SDCAVF()))
	reg.AddRow("dead-read (false-DUE source)", report.Pct(rf.FalseDUEAVF()))
	reg.AddRow("Ex-ACE", report.Pct(rf.ExACEFraction()))
	reg.AddRow("untouched", report.Pct(rf.UntouchedFraction()))
	reg.Fprint(os.Stdout)
	fmt.Println()

	feT := report.New(fmt.Sprintf("front-end fetch buffer (%d instructions)", fe.Entries),
		"class", "fraction")
	feT.AddRow("ACE (SDC AVF)", report.Pct(fe.SDCAVF()))
	feT.AddRow("un-ACE read (false-DUE source)", report.Pct(fe.FalseDUEAVF()))
	feT.AddRow("never-read (flushed)", report.Pct(fe.NeverReadFraction()))
	feT.AddRow("idle", report.Pct(fe.IdleFraction()))
	feT.Fprint(os.Stdout)
	fmt.Println()

	sbT := report.New(fmt.Sprintf("store buffer (%d entries, data+address payload)", sb.Entries),
		"class", "fraction")
	sbT.AddRow("ACE (SDC AVF)", report.Pct(sb.SDCAVF()))
	sbT.AddRow("dead data (false-DUE source)", report.Pct(sb.FalseDUEAVF()))
	sbT.AddRow("idle", report.Pct(sb.IdleFraction()))
	sbT.Fprint(os.Stdout)

	if *strikes > 0 {
		fmt.Println()
		inj := rec.Injector(res.Cycles, rep.Entries, rep.Dead)
		if err := faultCampaign(ctx, res, inj, *strikes, *faultSeed, d.Jobs(), *ckPath, *resume); err != nil {
			return err
		}
	}
	return nil
}

// faultCampaign runs the Figure-1 protection ladder against the traced run:
// every strike draws its own index-derived RNG stream, so the tallies are
// byte-identical at any worker count and across checkpoint/resume cycles.
func faultCampaign(ctx context.Context, res *core.Result, inj *fault.Injector, strikes int, seed uint64, jobs int, ckPath string, resume bool) error {
	labels, cfgs := core.OutcomeConfigs(strikes, seed)
	camp := &fault.Campaign{
		Injector: inj,
		Configs:  cfgs,
		Opts:     par.Options{Workers: jobs},
	}
	if ckPath != "" {
		fp := checkpoint.Fingerprint("sersim-faults", res.Name, res.Commits, camp.Fingerprint())
		ck, err := checkpoint.Open[fault.Result](ckPath, "sersim-faults", fp, camp.Cells(), resume)
		if err != nil {
			return err
		}
		camp.Checkpoint = ck
	}
	results, err := camp.Run(ctx)
	if err != nil {
		return cli.Partial(err, camp.Checkpoint)
	}
	title := fmt.Sprintf("fault-injection outcomes (%d strikes per configuration, seed %d)", strikes, seed)
	experiments.OutcomesTable(title, core.OutcomeRows(labels, results)).Fprint(os.Stdout)
	return camp.Checkpoint.Remove()
}
