// Package isa defines the IA-64-flavoured instruction set used by the
// simulator: instruction classes, register identifiers, the dynamic
// instruction record that flows through the pipeline, and the bit-level
// layout of an instruction-queue entry used for per-field ACE accounting.
//
// The ISA is deliberately a simplification of Itanium®: 128 integer
// registers, 128 floating-point registers, 64 predicate registers, full
// predication, explicit no-op / prefetch / branch-hint instructions, and a
// 41-bit instruction syllable. Only the properties that matter for
// architectural-vulnerability analysis are retained: which register and
// memory locations an instruction defines and uses, whether it can be
// squashed without architectural effect, and how its bits are laid out in
// the instruction queue.
package isa

import "fmt"

// Class identifies the functional class of an instruction. The class
// determines execution latency, which pipeline resources are used, and —
// centrally for this paper — whether the instruction is "neutral" to soft
// errors (no-ops, prefetches, branch hints).
type Class uint8

const (
	// ClassALU is an integer arithmetic/logic operation.
	ClassALU Class = iota
	// ClassFPU is a floating-point operation.
	ClassFPU
	// ClassLoad reads memory into a register.
	ClassLoad
	// ClassStore writes a register value to memory.
	ClassStore
	// ClassBranch is a conditional or unconditional branch.
	ClassBranch
	// ClassCall is a procedure call (branch with link).
	ClassCall
	// ClassReturn is a procedure return.
	ClassReturn
	// ClassNop is an explicit no-operation. IA-64 bundles frequently
	// contain no-ops because of template constraints.
	ClassNop
	// ClassPrefetch is a software data-prefetch hint (lfetch).
	ClassPrefetch
	// ClassHint is a branch-prediction hint instruction (brp).
	ClassHint
	// ClassIO models an uncached load/store to an I/O device; values
	// reaching I/O are observable and terminate π-bit tracking scope.
	ClassIO

	numClasses = iota
)

var classNames = [numClasses]string{
	"alu", "fpu", "load", "store", "branch", "call", "return",
	"nop", "prefetch", "hint", "io",
}

// String returns the lower-case mnemonic class name.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Valid reports whether c is a defined class.
func (c Class) Valid() bool { return int(c) < numClasses }

// Neutral reports whether the class is neutral to soft errors: the paper's
// second false-DUE source. A strike on a non-opcode bit of such an
// instruction cannot affect the program's final outcome.
func (c Class) Neutral() bool {
	return c == ClassNop || c == ClassPrefetch || c == ClassHint
}

// IsMem reports whether the class accesses the data memory hierarchy.
func (c Class) IsMem() bool {
	return c == ClassLoad || c == ClassStore || c == ClassPrefetch || c == ClassIO
}

// IsControl reports whether the class redirects control flow.
func (c Class) IsControl() bool {
	return c == ClassBranch || c == ClassCall || c == ClassReturn
}

// Reg identifies an architectural register. The integer file occupies
// [0, NumIntRegs), the floating-point file [NumIntRegs, NumIntRegs+NumFPRegs),
// and predicate registers [predBase, predBase+NumPredRegs). RegNone marks an
// absent operand.
type Reg int16

// Register file sizes, matching Itanium®'s architected counts.
const (
	NumIntRegs  = 128
	NumFPRegs   = 128
	NumPredRegs = 64

	predBase = NumIntRegs + NumFPRegs

	// NumRegs is the total number of architectural registers across all
	// three files; Reg values are indices into [0, NumRegs).
	NumRegs = NumIntRegs + NumFPRegs + NumPredRegs
)

// RegNone marks the absence of a register operand.
const RegNone Reg = -1

// IntReg returns the Reg for integer register rN. It panics if n is out of
// range.
func IntReg(n int) Reg {
	if n < 0 || n >= NumIntRegs {
		panic(fmt.Sprintf("isa: integer register %d out of range", n))
	}
	return Reg(n)
}

// FPReg returns the Reg for floating-point register fN.
func FPReg(n int) Reg {
	if n < 0 || n >= NumFPRegs {
		panic(fmt.Sprintf("isa: fp register %d out of range", n))
	}
	return Reg(NumIntRegs + n)
}

// PredReg returns the Reg for predicate register pN.
func PredReg(n int) Reg {
	if n < 0 || n >= NumPredRegs {
		panic(fmt.Sprintf("isa: predicate register %d out of range", n))
	}
	return Reg(predBase + n)
}

// IsInt reports whether r names an integer register.
func (r Reg) IsInt() bool { return r >= 0 && r < NumIntRegs }

// IsFP reports whether r names a floating-point register.
func (r Reg) IsFP() bool { return r >= NumIntRegs && r < predBase }

// IsPred reports whether r names a predicate register.
func (r Reg) IsPred() bool { return r >= predBase && r < NumRegs }

// Valid reports whether r names any architectural register.
func (r Reg) Valid() bool { return r >= 0 && r < NumRegs }

// String renders the register in assembly style (r5, f12, p3, none).
func (r Reg) String() string {
	switch {
	case r == RegNone:
		return "none"
	case r.IsInt():
		return fmt.Sprintf("r%d", int(r))
	case r.IsFP():
		return fmt.Sprintf("f%d", int(r)-NumIntRegs)
	case r.IsPred():
		return fmt.Sprintf("p%d", int(r)-predBase)
	default:
		return fmt.Sprintf("reg(%d)", int(r))
	}
}

// Inst is a dynamic instruction: one fetched syllable with its run-time
// outcomes resolved. The pipeline and the ACE analyser share this record.
//
// Seq numbers are assigned in fetch order and are unique across a run,
// including wrong-path instructions (which never commit).
//
// The fields are ordered widest first so the record packs into 40 bytes:
// decoded streams hold one per instruction, so every byte here is about
// 100k bytes of each 100k-commit stream memo (TestInstSize pins it).
type Inst struct {
	Seq  uint64 // dynamic sequence number, fetch order
	PC   uint64 // virtual address of the bundle syllable
	Addr uint64 // effective address (IsMem classes)

	// Register operands. Dest is RegNone for instructions without a
	// destination (stores, branches, no-ops...). PredGuard is the
	// qualifying predicate register, RegNone when unpredicated.
	Dest      Reg
	Src1      Reg
	Src2      Reg
	PredGuard Reg

	Class Class

	// Dynamic outcomes.
	PredFalse bool  // qualifying predicate evaluated false: result discarded
	WrongPath bool  // fetched past a mispredicted branch; will be squashed
	Taken     bool  // branch outcome (Class.IsControl only)
	Mispred   bool  // branch was mispredicted at fetch
	MemSize   uint8 // access size in bytes (IsMem classes)

	// CallDepth is the procedure-nesting depth at fetch, stamped by the
	// workload generator. The ACE analyser uses it to classify registers
	// that die because the procedure that wrote them returned.
	CallDepth uint8

	// FetchBubble is a front-end delivery gap, in cycles, charged before
	// this instruction can be fetched: it stands in for instruction-cache
	// misses, ITLB misses and bundle-dispersal breaks, which keep the
	// instruction queue from sitting permanently full. The pipeline
	// consumes (zeroes) it on first fetch; refetches after a squash hit a
	// warm I-cache and pay nothing.
	FetchBubble uint8
}

// HasDest reports whether the instruction architecturally writes Dest.
// Predicated-false and wrong-path instructions do not.
func (in *Inst) HasDest() bool {
	return in.Dest != RegNone && !in.PredFalse && !in.WrongPath
}

// Committed reports whether the instruction's results become architectural
// state: it must be on the correct path. Predicated-false instructions
// commit (retire) but write nothing.
func (in *Inst) Committed() bool { return !in.WrongPath }

// String renders a compact single-line disassembly, useful in test failures.
func (in *Inst) String() string {
	s := fmt.Sprintf("#%d %s", in.Seq, in.Class)
	if in.PredGuard != RegNone {
		s = fmt.Sprintf("(%s) %s", in.PredGuard, s)
	}
	if in.Dest != RegNone {
		s += " " + in.Dest.String() + "="
	}
	if in.Src1 != RegNone {
		s += " " + in.Src1.String()
	}
	if in.Src2 != RegNone {
		s += "," + in.Src2.String()
	}
	if in.Class.IsMem() {
		s += fmt.Sprintf(" [%#x]", in.Addr)
	}
	if in.WrongPath {
		s += " <wrong-path>"
	}
	if in.PredFalse {
		s += " <pred-false>"
	}
	return s
}
