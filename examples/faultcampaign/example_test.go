package faultcampaign_test

import (
	"fmt"
	"os"

	"softerror/internal/ace"
	"softerror/internal/cache"
	"softerror/internal/core"
	"softerror/internal/fault"
	"softerror/internal/report"
	"softerror/internal/spec"
)

// Example injects 120,000 strikes into twolf's instruction queue, once
// unprotected and once under conservative parity, and compares the
// injected SDC and DUE fractions with the analytic AVFs of the same run.
func Example() {
	bench, _ := spec.ByName("twolf")
	rec := fault.NewStreamRecorder(60_000)
	res, err := core.Run(core.Config{Workload: bench.Params, Commits: 60_000, Sink: rec})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	rep := res.Report
	inj := rec.Injector(res.Cycles, rep.Entries, rep.Dead)
	const strikes = 120_000

	// Unprotected queue: faults either vanish or silently corrupt data.
	unprot, err := inj.Run(fault.Config{
		Protection: cache.ProtNone, Strikes: strikes, Seed: 3,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// Parity, conservative: every detected fault raises a machine check.
	parity, err := inj.Run(fault.Config{
		Protection: cache.ProtParity, Level: ace.TrackNever,
		Strikes: strikes, Seed: 3,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	t := report.New(fmt.Sprintf("Figure 1 taxonomy on %s (%d strikes each)", bench.Name, strikes),
		"outcome", "unprotected", "parity")
	for o := fault.Outcome(0); o < fault.NumOutcomes; o++ {
		t.AddRow(o.String(),
			report.Pct(unprot.Frac(o)), report.Pct(parity.Frac(o)))
	}
	t.Fprint(os.Stdout)

	fmt.Println("\nMonte-Carlo vs analytic (ACE) AVFs:")
	fmt.Printf("  SDC AVF:   injected %5.1f%%   analytic %5.1f%%\n",
		100*unprot.SDCFraction(), 100*rep.SDCAVF())
	fmt.Printf("  DUE AVF:   injected %5.1f%%   analytic %5.1f%%\n",
		100*parity.DUEFraction(), 100*rep.DUEAVF())
	fmt.Printf("  false DUE: injected %5.1f%%   analytic %5.1f%%\n",
		100*parity.FalseDUEFraction(), 100*rep.FalseDUEAVF())
	fmt.Println("\nnote how parity converts every SDC into a true DUE and additionally")
	fmt.Println("flags benign un-ACE faults as false DUEs — the paper's observation that")
	fmt.Println("adding error detection more than doubles the structure's error rate.")

	// Output:
	// Figure 1 taxonomy on twolf (120000 strikes each)
	// outcome       unprotected  parity
	// ----------------------------------
	// idle                45.6%   45.6%
	// never-read          17.6%   17.6%
	// benign-unace        16.4%    0.0%
	// sdc                 20.4%    0.0%
	// false-due            0.0%   16.4%
	// true-due             0.0%   20.4%
	// suppressed           0.0%    0.0%
	// latent               0.0%    0.0%
	// missed-error         0.0%    0.0%
	//
	// Monte-Carlo vs analytic (ACE) AVFs:
	//   SDC AVF:   injected  20.4%   analytic  20.4%
	//   DUE AVF:   injected  36.8%   analytic  36.7%
	//   false DUE: injected  16.4%   analytic  16.4%
	//
	// note how parity converts every SDC into a true DUE and additionally
	// flags benign un-ACE faults as false DUEs — the paper's observation that
	// adding error detection more than doubles the structure's error rate.
}
