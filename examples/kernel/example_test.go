package kernel_test

import (
	"fmt"

	"softerror/internal/ace"
	"softerror/internal/cache"
	"softerror/internal/pipeline"
	"softerror/internal/workload"
)

const kernel = `
# one iteration of a stencil-ish loop
load r5 r1 0x1000        # x    = a[i]
load r6 r1 0x1040        # y    = a[i+8]
alu r7 r5 r6             # t    = f(x, y)
store r7 r2 0x2000       # b[i] = t
alu r120 r7 -            # profiling temp: dead, overwritten next iter
cmp p3 r7 r5
(p3) alu r8 r7 -         # taken-side work
(p3!) alu r9 r7 -        # annulled side
nop                      # bundle filler
br p3 taken
`

// Example replays the kernel for 50,000 commits through the single-step
// pipeline and analyses the full trace.
func Example() {
	src := workload.MustParseReplay(kernel, 42)
	mem := cache.MustNewDefault()
	workload.WarmCaches(mem)
	pipe, err := pipeline.New(pipeline.DefaultConfig(), src, mem)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	tr := pipe.Run(50_000, true)
	rep := ace.Analyze(tr)

	fmt.Printf("kernel ran at IPC %.2f over %d cycles\n\n", tr.IPC(), tr.Cycles)
	fmt.Printf("instruction-queue AVFs:\n")
	fmt.Printf("  SDC (unprotected)  %5.1f%%\n", 100*rep.SDCAVF())
	fmt.Printf("  DUE (parity)       %5.1f%%\n", 100*rep.DUEAVF())
	fmt.Printf("  false DUE          %5.1f%%\n\n", 100*rep.FalseDUEAVF())

	fmt.Println("dynamic dead-code discovery on the kernel:")
	for c := ace.Category(0); c < ace.NumCategories; c++ {
		if n := rep.Dead.Counts[c]; n > 0 {
			fmt.Printf("  %-11s %6d instructions\n", c.String(), n)
		}
	}

	fmt.Println("\nfalse-DUE left after each tracking level:")
	for _, lvl := range []ace.TrackLevel{
		ace.TrackCommit, ace.TrackAntiPi, ace.TrackPET,
		ace.TrackRegFile, ace.TrackStoreBuffer, ace.TrackMemory,
	} {
		fmt.Printf("  %-12s %5.1f%%\n", lvl.String(), 100*rep.FalseDUERemaining(lvl, 512))
	}

	// Output:
	// kernel ran at IPC 2.47 over 20208 cycles
	//
	// instruction-queue AVFs:
	//   SDC (unprotected)   48.6%
	//   DUE (parity)        88.3%
	//   false DUE           39.7%
	//
	// dynamic dead-code discovery on the kernel:
	//   ace          25005 instructions
	//   pred-false    5000 instructions
	//   neutral       5000 instructions
	//   fdd-reg       9998 instructions
	//   fdd-mem       4999 instructions
	//
	// false-DUE left after each tracking level:
	//   pi-commit     31.1%
	//   anti-pi       24.6%
	//   pet            9.4%
	//   pi-regfile     9.4%
	//   pi-storebuf    9.4%
	//   pi-memory      0.0%
}
