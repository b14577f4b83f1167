package regfile_test

import (
	"fmt"
	"os"

	"softerror/internal/core"
	"softerror/internal/report"
	"softerror/internal/spec"
)

// Example decomposes the register files' bit-cycles on two integer and
// two floating-point benchmarks, 80,000 commits each.
func Example() {
	t := report.New("register-file vulnerability (int + fp + predicate files)",
		"benchmark", "SDC AVF", "DUE AVF", "false DUE", "Ex-ACE", "untouched")
	for _, name := range []string{"gzip-graphic", "mcf", "ammp", "sixtrack"} {
		b, _ := spec.ByName(name)
		res, err := core.Run(core.Config{
			Workload: b.Params,
			Commits:  80_000,
			RegFile:  true,
		})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		rf := res.RegFile
		t.AddRow(name,
			report.Pct(rf.SDCAVF()), report.Pct(rf.DUEAVF()),
			report.Pct(rf.FalseDUEAVF()), report.Pct(rf.ExACEFraction()),
			report.Pct(rf.UntouchedFraction()))
	}
	t.Fprint(os.Stdout)

	fmt.Println("\nthe 'false DUE' column is the share of register bit-cycles whose")
	fmt.Println("faults a parity-checked file would flag even though only dynamically")
	fmt.Println("dead consumers ever read them; carrying pi bits from registers down")
	fmt.Println("the pipeline (sections 4.2-4.3 of the paper) suppresses exactly these.")

	// Output:
	// register-file vulnerability (int + fp + predicate files)
	// benchmark     SDC AVF  DUE AVF  false DUE  Ex-ACE  untouched
	// -------------------------------------------------------------
	// gzip-graphic     9.8%    10.9%       1.1%   58.5%      30.6%
	// mcf              7.3%     8.1%       0.8%   61.3%      30.6%
	// ammp             7.3%     8.6%       1.4%   62.0%      29.4%
	// sixtrack         7.3%     8.9%       1.7%   61.9%      29.2%
	//
	// the 'false DUE' column is the share of register bit-cycles whose
	// faults a parity-checked file would flag even though only dynamically
	// dead consumers ever read them; carrying pi bits from registers down
	// the pipeline (sections 4.2-4.3 of the paper) suppresses exactly these.
}
