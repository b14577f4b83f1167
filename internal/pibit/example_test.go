package pibit_test

import (
	"fmt"

	"softerror/internal/ace"
	"softerror/internal/isa"
	"softerror/internal/pibit"
)

// The PET buffer in action: a parity-flagged instruction enters with its π
// bit set; by the time it is evicted, the buffer has logged an overwrite of
// its destination with no intervening read, proving the error false.
func ExamplePETBuffer() {
	pet := pibit.NewPETBuffer(3)
	faulty := isa.Inst{Seq: 1, Class: isa.ClassALU, Dest: isa.IntReg(5),
		Src1: isa.IntReg(1), Src2: isa.RegNone, PredGuard: isa.RegNone}
	overwrite := isa.Inst{Seq: 2, Class: isa.ClassALU, Dest: isa.IntReg(5),
		Src1: isa.IntReg(2), Src2: isa.RegNone, PredGuard: isa.RegNone}
	nop := isa.Inst{Seq: 3, Class: isa.ClassNop, Dest: isa.RegNone,
		Src1: isa.RegNone, Src2: isa.RegNone, PredGuard: isa.RegNone}

	pet.Push(faulty, true) // π set by the parity check
	pet.Push(overwrite, false)
	pet.Push(nop, false)
	signal, seq, _ := pet.Push(nop, false) // evicts the faulty entry
	fmt.Printf("evicted seq %d: signal error = %v\n", seq, signal)
	// Output:
	// evicted seq 1: signal error = false
}

// The tracking engine resolves a fault per the deployed mechanism level: a
// plain-parity machine signals immediately; the anti-π bit recognises that
// a non-opcode strike on a no-op cannot matter.
func ExampleEngine_Process() {
	nop := isa.Inst{Seq: 0, Class: isa.ClassNop, Dest: isa.RegNone,
		Src1: isa.RegNone, Src2: isa.RegNone, PredGuard: isa.RegNone}
	ix := pibit.NewIndex([]isa.Inst{nop})

	parity := pibit.NewEngine(ace.TrackNever)
	antiPi := pibit.NewEngine(ace.TrackAntiPi)
	fmt.Println("plain parity:", parity.Process(ix, 0, isa.FieldImm))
	fmt.Println("with anti-pi:", antiPi.Process(ix, 0, isa.FieldImm))
	fmt.Println("opcode strike:", antiPi.Process(ix, 0, isa.FieldOpcode))
	// Output:
	// plain parity: signalled
	// with anti-pi: suppressed
	// opcode strike: signalled
}
