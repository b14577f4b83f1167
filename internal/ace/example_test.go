package ace_test

import (
	"fmt"

	"softerror/internal/ace"
	"softerror/internal/isa"
)

// Dead-code discovery over a committed stream: the write to r5 is
// first-level dynamically dead (overwritten before any read), and the
// instruction feeding only that write is transitively dead.
func ExampleAnalyzeDeadness() {
	mk := func(class isa.Class, dest, src isa.Reg) isa.Inst {
		return isa.Inst{Class: class, Dest: dest, Src1: src,
			Src2: isa.RegNone, PredGuard: isa.RegNone}
	}
	log := []isa.Inst{
		mk(isa.ClassALU, isa.IntReg(4), isa.IntReg(1)), // seq 0: feeds only the dead write
		mk(isa.ClassALU, isa.IntReg(5), isa.IntReg(4)), // seq 1: overwritten before read
		mk(isa.ClassALU, isa.IntReg(5), isa.IntReg(2)), // seq 2: overwrites r5
		mk(isa.ClassALU, isa.IntReg(4), isa.IntReg(2)), // seq 3: overwrites r4
	}
	dead := ace.AnalyzeDeadness(log)
	for i := range log {
		fmt.Printf("seq %d: %v\n", i, dead.OfPos(i))
	}
	// Output:
	// seq 0: tdd-reg
	// seq 1: fdd-reg
	// seq 2: ace
	// seq 3: ace
}

// Per-bit ground truth (§4.1): a dead instruction's destination-specifier
// bits stay ACE — corrupting them redirects the dead write onto a live
// register — while its other bits are benign.
func ExampleBitACE() {
	fmt.Println("dead, imm bit: ", ace.BitACE(ace.CatFDDReg, isa.FieldImm, true))
	fmt.Println("dead, dest bit:", ace.BitACE(ace.CatFDDReg, isa.FieldDest, true))
	fmt.Println("nop, opcode:   ", ace.BitACE(ace.CatNeutral, isa.FieldOpcode, false))
	fmt.Println("wrong path:    ", ace.BitACE(ace.CatWrongPath, isa.FieldOpcode, true))
	// Output:
	// dead, imm bit:  false
	// dead, dest bit: true
	// nop, opcode:    true
	// wrong path:     false
}

// Each un-ACE category maps to the cheapest π-bit mechanism covering it
// (Figure 2's deployment order).
func ExampleCategory_Track() {
	for _, c := range []ace.Category{
		ace.CatWrongPath, ace.CatNeutral, ace.CatFDDReg, ace.CatTDDReg, ace.CatFDDMem,
	} {
		fmt.Printf("%-10s -> %s\n", c, c.Track())
	}
	// Output:
	// wrong-path -> pi-commit
	// neutral    -> anti-pi
	// fdd-reg    -> pi-regfile
	// tdd-reg    -> pi-storebuf
	// fdd-mem    -> pi-memory
}
