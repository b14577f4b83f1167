// Command chipplan evaluates and plans chip-level soft-error budgets (§2
// of the paper). It either loads a budget from JSON or measures one from a
// simulation of a Table-2 benchmark, then reports the chip's SDC/DUE rates
// against vendor-style MTTF targets and searches for the cheapest
// protection mix that meets them.
//
//	chipplan -measure mcf -rawfit 0.05 -sdctarget 5000 -duetarget 25
//	chipplan -budget budget.json
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"softerror/internal/ace"
	"softerror/internal/chip"
	"softerror/internal/cli"
	"softerror/internal/core"
	"softerror/internal/isa"
	"softerror/internal/spec"
)

func main() {
	cli.Main("chipplan", run)
}

func run(args []string) error {
	d := cli.NewDriver("chipplan", "chipplan [flags] (-budget file.json | -measure bench)")
	fs := d.FS
	budgetPath := fs.String("budget", "", "JSON chip budget to evaluate")
	measure := fs.String("measure", "", "Table-2 benchmark to measure a budget from")
	commits := fs.Uint64("commits", core.DefaultCommits, "commits for -measure")
	rawFIT := fs.Float64("rawfit", 0.05, "raw soft-error rate per bit (FIT) for -measure")
	sdcTarget := fs.Float64("sdctarget", 5000, "SDC MTTF target in years for -measure")
	dueTarget := fs.Float64("duetarget", 25, "DUE MTTF target in years for -measure")
	if err := d.Parse(args); err != nil {
		return err
	}

	var budget *chip.Budget
	switch {
	case *budgetPath != "" && *measure != "":
		return cli.Usagef("use either -budget or -measure, not both")
	case *budgetPath != "":
		data, err := os.ReadFile(*budgetPath)
		if err != nil {
			return err
		}
		budget = &chip.Budget{}
		if err := json.Unmarshal(data, budget); err != nil {
			return fmt.Errorf("parse %s: %w", *budgetPath, err)
		}
	case *measure != "":
		b, err := measureBudget(*measure, *commits, *rawFIT, *sdcTarget, *dueTarget)
		if err != nil {
			return err
		}
		budget = b
	default:
		return cli.Usagef("one of -budget or -measure is required")
	}

	ev, err := budget.Evaluate()
	if err != nil {
		return err
	}
	fmt.Printf("as specified: SDC %s; DUE %s (meets targets: SDC %v, DUE %v)\n\n",
		ev.SDC, ev.DUE, ev.MeetsSDC, ev.MeetsDUE)

	plan, planEv, err := budget.Plan()
	if err != nil {
		return err
	}
	fmt.Printf("cheapest compliant mix (area cost %.1f%%):\n", 100*planEv.AreaCost)
	for _, line := range plan.Describe() {
		fmt.Println("  " + line)
	}
	fmt.Printf("\nchip totals: SDC %s; DUE %s\n", planEv.SDC, planEv.DUE)
	return nil
}

// measureBudget simulates one benchmark and builds a budget from the
// measured per-structure AVFs.
func measureBudget(name string, commits uint64, rawFIT, sdcTarget, dueTarget float64) (*chip.Budget, error) {
	b, ok := spec.ByName(name)
	if !ok {
		return nil, cli.Usagef("unknown benchmark %q", name)
	}
	res, err := core.Run(core.Config{
		Workload: b.Params, Commits: commits, FrontEnd: true, StoreBuffer: true, RegFile: true,
	})
	if err != nil {
		return nil, err
	}
	fe, sb, rf := res.FrontEndReport, res.StoreBufferReport, res.RegFile
	return &chip.Budget{
		RawFITPerBit:   rawFIT,
		SDCTargetYears: sdcTarget,
		DUETargetYears: dueTarget,
		Structures: []chip.Structure{
			{Name: "instruction-queue", Bits: float64(64 * isa.EntryPayloadBits),
				SDCAVF: res.Report.SDCAVF(), FalseDUEAVF: res.Report.FalseDUEAVF()},
			{Name: "front-end-buffer", Bits: float64(fe.Entries * isa.EntryPayloadBits),
				SDCAVF: fe.SDCAVF(), FalseDUEAVF: fe.FalseDUEAVF()},
			{Name: "store-buffer", Bits: float64(sb.Entries * ace.SBEntryBits),
				SDCAVF: sb.SDCAVF(), FalseDUEAVF: sb.FalseDUEAVF()},
			{Name: "register-files", Bits: 128*64 + 128*82 + 64,
				SDCAVF: rf.SDCAVF(), FalseDUEAVF: rf.FalseDUEAVF()},
		},
	}, nil
}
