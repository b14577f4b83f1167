package quickstart_test

import (
	"fmt"

	"softerror/internal/core"
	"softerror/internal/serate"
	"softerror/internal/workload"
)

// Example runs a mid-of-the-road integer workload on the default
// Itanium®2-like core (6-wide, 64-entry IQ, 8KB/256KB/10MB caches).
func Example() {
	res, err := core.Run(core.Config{
		Workload: workload.Default(),
		Commits:  100_000,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	rep := res.Report
	fmt.Printf("simulated %d instructions in %d cycles: IPC = %.2f\n\n",
		res.Commits, res.Cycles, res.IPC)

	fmt.Println("instruction-queue vulnerability:")
	fmt.Printf("  SDC AVF (unprotected queue)      %5.1f%%\n", 100*rep.SDCAVF())
	fmt.Printf("  DUE AVF (parity-protected queue) %5.1f%%\n", 100*rep.DUEAVF())
	fmt.Printf("    true DUE  (real errors)        %5.1f%%\n", 100*rep.TrueDUEAVF())
	fmt.Printf("    false DUE (benign, flagged)    %5.1f%%\n", 100*rep.FalseDUEAVF())
	fmt.Printf("  dynamically dead instructions    %5.1f%%\n\n", 100*rep.Dead.DeadFraction())

	// The MITF metric: how many instructions the machine commits, on
	// average, between two errors — at a nominal raw rate of 0.001 FIT
	// per bit for the queue's 64 x 41 payload bits.
	raw := serate.FIT(0.001 * 64 * 41)
	fmt.Println("at 0.001 FIT/bit and 2.5 GHz:")
	fmt.Printf("  SDC MITF = %.3g instructions\n",
		serate.MITFFromAVF(res.IPC, 2.5e9, raw, rep.SDCAVF()))
	fmt.Printf("  DUE MITF = %.3g instructions\n",
		serate.MITFFromAVF(res.IPC, 2.5e9, raw, rep.DUEAVF()))

	// Output:
	// simulated 100003 instructions in 38411 cycles: IPC = 2.60
	//
	// instruction-queue vulnerability:
	//   SDC AVF (unprotected queue)       23.7%
	//   DUE AVF (parity-protected queue)  43.2%
	//     true DUE  (real errors)         23.7%
	//     false DUE (benign, flagged)     19.6%
	//   dynamically dead instructions     21.8%
	//
	// at 0.001 FIT/bit and 2.5 GHz:
	//   SDC MITF = 3.77e+22 instructions
	//   DUE MITF = 2.07e+22 instructions
}
