package chipbudget_test

import (
	"fmt"

	"softerror/internal/ace"
	"softerror/internal/chip"
	"softerror/internal/core"
	"softerror/internal/isa"
	"softerror/internal/spec"
)

// Example budgets gzip-graphic's four measured structures against a
// 5000-year SDC and a 25-year DUE target.
func Example() {
	bench, _ := spec.ByName("gzip-graphic")
	res, err := core.Run(core.Config{
		Workload:    bench.Params,
		Commits:     80_000,
		FrontEnd:    true,
		StoreBuffer: true,
		RegFile:     true,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
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
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("everything unprotected:\n  SDC %s\n  meets %0.f-year SDC target: %v\n\n",
		unprotected.SDC, budget.SDCTargetYears, unprotected.MeetsSDC)

	plan, ev, err := budget.Plan()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("cheapest protection mix meeting both targets (area cost %.1f%%):\n",
		100*ev.AreaCost)
	for _, line := range plan.Describe() {
		fmt.Println("  " + line)
	}
	fmt.Printf("\nchip totals: SDC %s; DUE %s\n", ev.SDC, ev.DUE)

	// Output:
	// measured on gzip-graphic (80005 commits):
	//
	// everything unprotected:
	//   SDC 159.9 FIT (MTTF 713.97 years)
	//   meets 5000-year SDC target: false
	//
	// cheapest protection mix meeting both targets (area cost 2.8%):
	//   register-files: parity+tracking(100%), SDC 0 FIT, DUE 92.3 FIT
	//   front-end-buffer: parity+tracking(100%), SDC 0 FIT, DUE 33.8 FIT
	//   instruction-queue: parity+tracking(100%), SDC 0 FIT, DUE 28.8 FIT
	//   store-buffer: none, SDC 4.98 FIT, DUE 0 FIT
	//
	// chip totals: SDC 5.0 FIT (MTTF 22932.15 years); DUE 154.9 FIT (MTTF 736.91 years)
}
