package pibitcoverage_test

import (
	"fmt"
	"os"

	"softerror/internal/ace"
	"softerror/internal/cache"
	"softerror/internal/core"
	"softerror/internal/fault"
	"softerror/internal/isa"
	"softerror/internal/pibit"
	"softerror/internal/report"
	"softerror/internal/spec"
)

// Example_petBuffer exercises the PET buffer directly: a faulty
// instruction whose destination is overwritten without a read is proven
// dead at eviction.
func Example_petBuffer() {
	pet := pibit.NewPETBuffer(4)

	faulty := isa.Inst{Seq: 100, Class: isa.ClassALU,
		Dest: isa.IntReg(7), Src1: isa.IntReg(1), Src2: isa.RegNone,
		PredGuard: isa.RegNone}
	overwriter := isa.Inst{Seq: 101, Class: isa.ClassALU,
		Dest: isa.IntReg(7), Src1: isa.IntReg(2), Src2: isa.RegNone,
		PredGuard: isa.RegNone}
	nop := isa.Inst{Seq: 102, Class: isa.ClassNop,
		Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone,
		PredGuard: isa.RegNone}

	pet.Push(faulty, true) // parity flagged this one: π set
	pet.Push(overwriter, false)
	pet.Push(nop, false)
	pet.Push(nop, false)
	signal, seq, _ := pet.Push(nop, false) // evicts the faulty entry
	fmt.Printf("evicting seq %d with pi set: signal=%v (overwrite-without-read proves it FDD)\n",
		seq, signal)
	fmt.Printf("buffer counters: suppressed=%d signalled=%d\n",
		pet.Suppressed(), pet.Signalled())

	// Output:
	// evicting seq 100 with pi set: signal=false (overwrite-without-read proves it FDD)
	// buffer counters: suppressed=1 signalled=0
}

// Example_campaign injects 40,000 strikes into gzip-graphic's
// parity-protected queue under each cumulative tracking level.
func Example_campaign() {
	bench, _ := spec.ByName("gzip-graphic")
	res, err := core.Run(core.Config{
		Workload:  bench.Params,
		Commits:   60_000,
		KeepTrace: true,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	inj := fault.NewInjector(res.Trace, res.Report.Dead)

	t := report.New("outcomes of 40,000 strikes per configuration",
		"tracking level", "false DUE", "true DUE", "suppressed", "latent", "missed")
	levels := append([]ace.TrackLevel{ace.TrackNever}, core.TrackingLevels...)
	for _, lvl := range levels {
		r, err := inj.Run(fault.Config{
			Protection: cache.ProtParity,
			Level:      lvl,
			Strikes:    40_000,
			Seed:       7,
		})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		t.AddRow(lvl.String(),
			report.Int(r.Counts[fault.OutcomeFalseDUE]),
			report.Int(r.Counts[fault.OutcomeTrueDUE]),
			report.Int(r.Counts[fault.OutcomeSuppressed]),
			report.Int(r.Counts[fault.OutcomeLatent]),
			report.Int(r.Counts[fault.OutcomeMissedError]))
	}
	t.Fprint(os.Stdout)
	fmt.Println("\nfalse DUEs fall to zero as the stack deploys; the 'missed' column")
	fmt.Println("stays zero: no mechanism ever suppresses an outcome-changing error.")

	// Output:
	// outcomes of 40,000 strikes per configuration
	// tracking level  false DUE  true DUE  suppressed  latent  missed
	// ----------------------------------------------------------------
	// never                6801      8888           0       0       0
	// pi-commit            5108      8888        1693       0       0
	// anti-pi              2722      8888        4079       0       0
	// pet                  1875      8888        4926       0       0
	// pi-regfile           1383      8872        5418      16       0
	// pi-storebuf           777      8783        6024     105       0
	// pi-memory               0      8560        6801     328       0
	//
	// false DUEs fall to zero as the stack deploys; the 'missed' column
	// stays zero: no mechanism ever suppresses an outcome-changing error.
}
