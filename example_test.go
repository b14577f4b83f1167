package softerror_test

import (
	"fmt"

	"softerror"
	"softerror/internal/pipeline"
	"softerror/internal/report"
)

// Example_quickRun simulates a small slice of the default workload and
// checks the basic AVF relationships from §2 of the paper: adding parity
// converts the SDC AVF into true DUE and adds false DUE on top.
func Example_quickRun() {
	res, err := softerror.Run(softerror.Config{
		Workload: softerror.DefaultWorkload(),
		Commits:  20_000,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	rep := res.Report
	fmt.Println("IPC positive:", res.IPC > 0)
	fmt.Println("true DUE equals SDC:", rep.TrueDUEAVF() == rep.SDCAVF())
	fmt.Println("parity raises total error rate:", rep.DUEAVF() > rep.SDCAVF())
	// Output:
	// IPC positive: true
	// true DUE equals SDC: true
	// parity raises total error rate: true
}

// Example_squashPolicy compares baseline and squash-on-L1 on one Table-2
// benchmark: the AVF must fall.
func Example_squashPolicy() {
	bench, ok := softerror.BenchmarkByName("mcf")
	if !ok {
		fmt.Println("missing benchmark")
		return
	}
	suite := softerror.NewSuite([]softerror.Benchmark{bench}, 20_000)
	base, err := suite.Result(bench, softerror.PolicyBaseline)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	squash, err := suite.Result(bench, softerror.PolicySquashL1)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("squashing reduces SDC AVF:", squash.Report.SDCAVF() < base.Report.SDCAVF())
	fmt.Println("squash events fired:", squash.Squashes > 0)
	// Output:
	// squashing reduces SDC AVF: true
	// squash events fired: true
}

// Example_roster lists the shape of the Table-2 benchmark roster.
func Example_roster() {
	benches := softerror.Benchmarks()
	ints, fps := 0, 0
	for _, b := range benches {
		if b.FP {
			fps++
		} else {
			ints++
		}
	}
	fmt.Printf("%d benchmarks: %d integer, %d floating-point\n", len(benches), ints, fps)
	// Output:
	// 26 benchmarks: 12 integer, 14 floating-point
}

// Example_refetchOverlap sweeps the refetch-overlap design knob (DESIGN.md
// decision 3) on mcf under squash-on-L1: how much of the front-end refill
// hides under the miss shadow decides the IPC cost of squashing.
func Example_refetchOverlap() {
	bench, _ := softerror.BenchmarkByName("mcf")
	t := report.New("Ablation: refetch overlap (mcf, squash-L1)",
		"overlap (cycles)", "IPC", "SDC AVF", "IPC/SDC")
	for _, overlap := range []int{0, 2, 4, 6, 8} {
		cfg := pipeline.DefaultConfig()
		cfg.SquashTrigger = pipeline.TriggerL1Miss
		cfg.RefetchOverlap = overlap
		res, err := softerror.Run(softerror.Config{Workload: bench.Params, Pipeline: cfg, Commits: 60_000})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		sdc := res.Report.SDCAVF()
		t.AddRow(fmt.Sprint(overlap), report.F2(res.IPC), report.Pct(sdc), report.F2(res.IPC/sdc))
	}
	fmt.Print(t.String())
	// Output:
	// Ablation: refetch overlap (mcf, squash-L1)
	// overlap (cycles)   IPC  SDC AVF  IPC/SDC
	// -----------------------------------------
	// 0                 1.45    11.1%    13.03
	// 2                 1.46    11.2%    13.03
	// 4                 1.48    11.3%    13.03
	// 6                 1.49    11.5%    13.03
	// 8                 1.51    11.6%    13.03
}
