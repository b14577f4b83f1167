package squashstudy_test

import (
	"fmt"
	"os"

	"softerror/internal/core"
	"softerror/internal/pipeline"
	"softerror/internal/report"
	"softerror/internal/serate"
	"softerror/internal/spec"
)

// Example sweeps four exposure policies on mcf, the classic
// pointer-chasing, memory-bound SPEC workload: instructions pool in the
// queue behind load misses, so there is a lot of exposure for squashing
// to remove.
func Example() {
	bench, _ := spec.ByName("mcf")
	policies := []core.Policy{
		core.PolicyBaseline,
		core.PolicySquashL1,
		core.PolicySquashL0,
		core.PolicyThrottleL1,
	}

	var base *core.Result
	t := report.New("exposure reduction on "+bench.Name,
		"policy", "IPC", "SDC AVF", "DUE AVF", "squashes", "rel MITF (SDC)")
	for _, pol := range policies {
		cfg := pipeline.DefaultConfig()
		pol.Apply(&cfg)
		res, err := core.Run(core.Config{
			Workload: bench.Params,
			Pipeline: cfg,
			Commits:  120_000,
		})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		if pol == core.PolicyBaseline {
			base = res
		}
		// MITF is proportional to IPC/AVF at fixed frequency and raw
		// error rate, so the relative MITF needs no rate assumptions.
		relMITF := serate.Merit(res.IPC, res.Report.SDCAVF()) /
			serate.Merit(base.IPC, base.Report.SDCAVF())
		t.AddRow(pol.String(), report.F2(res.IPC),
			report.Pct(res.Report.SDCAVF()), report.Pct(res.Report.DUEAVF()),
			report.Int(res.Squashes), report.Rel(relMITF))
	}
	t.Fprint(os.Stdout)

	fmt.Println("\nreading the last column: positive means the AVF fell by more than")
	fmt.Println("the IPC did, so the machine commits more instructions between errors —")
	fmt.Println("the paper's criterion for a worthwhile exposure-reduction policy.")

	// Output:
	// exposure reduction on mcf
	// policy                       IPC  SDC AVF  DUE AVF  squashes  rel MITF (SDC)
	// -----------------------------------------------------------------------------
	// no squashing                1.68    30.8%    55.5%         0           +0.0%
	// squash on L1 load misses    1.59    12.2%    22.0%       549         +138.6%
	// squash on L0 load misses    1.46     7.8%    14.1%      1271         +243.0%
	// throttle on L1 load misses  1.65    28.8%    51.8%         0           +4.9%
	//
	// reading the last column: positive means the AVF fell by more than
	// the IPC did, so the machine commits more instructions between errors —
	// the paper's criterion for a worthwhile exposure-reduction policy.
}
