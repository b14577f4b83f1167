// Chipbudget: the §2 design loop end to end. Measure the AVFs of every
// modelled structure on a real simulation, compose them into chip-level
// SDC/DUE rates, check vendor-style MTTF targets, and let the planner pick
// the cheapest protection mix that meets them.
//
//	go run ./examples/chipbudget
package main

import (
	"fmt"
	"log"

	"softerror/internal/ace"
	"softerror/internal/chip"
	"softerror/internal/core"
	"softerror/internal/isa"
	"softerror/internal/spec"
)

func main() {
	bench, ok := spec.ByName("gzip-graphic")
	if !ok {
		log.Fatal("benchmark missing")
	}
	res, err := core.Run(core.Config{
		Workload:    bench.Params,
		Commits:     80_000,
		FrontEnd:    true,
		StoreBuffer: true,
		RegFile:     true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fe, sb, rf := res.FrontEndReport, res.StoreBufferReport, res.RegFile

	budget := &chip.Budget{
		// A dense future node (the paper's motivation: error rates grow
		// with transistor counts) and vendor-style targets (Bossen,
		// IRPS'02: ~1000-year SDC, 10-25-year DUE MTTFs).
		RawFITPerBit:   0.05,
		SDCTargetYears: 5000,
		DUETargetYears: 25,
		Structures: []chip.Structure{
			{
				Name:        "instruction-queue",
				Bits:        float64(64 * isa.EntryPayloadBits),
				SDCAVF:      res.Report.SDCAVF(),
				FalseDUEAVF: res.Report.FalseDUEAVF(),
			},
			{
				Name:        "front-end-buffer",
				Bits:        float64(fe.Entries * isa.EntryPayloadBits),
				SDCAVF:      fe.SDCAVF(),
				FalseDUEAVF: fe.FalseDUEAVF(),
			},
			{
				Name:        "store-buffer",
				Bits:        float64(sb.Entries * ace.SBEntryBits),
				SDCAVF:      sb.SDCAVF(),
				FalseDUEAVF: sb.FalseDUEAVF(),
			},
			{
				Name:        "register-files",
				Bits:        128*64 + 128*82 + 64,
				SDCAVF:      rf.SDCAVF(),
				FalseDUEAVF: rf.FalseDUEAVF(),
			},
		},
	}

	fmt.Printf("measured on %s (%d commits):\n\n", bench.Name, res.Commits)
	unprotected, err := budget.Evaluate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("everything unprotected:\n  SDC %s\n  meets %0.f-year SDC target: %v\n\n",
		unprotected.SDC, budget.SDCTargetYears, unprotected.MeetsSDC)

	plan, ev, err := budget.Plan()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cheapest protection mix meeting both targets (area cost %.1f%%):\n",
		100*ev.AreaCost)
	for _, line := range plan.Describe() {
		fmt.Println("  " + line)
	}
	fmt.Printf("\nchip totals: SDC %s; DUE %s\n", ev.SDC, ev.DUE)
}
