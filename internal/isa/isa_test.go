package isa

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestInstSize pins the packed instruction record: the decoded stream
// memos hold one per instruction, so a field that breaks the packing
// grows every memo by a fifth.
func TestInstSize(t *testing.T) {
	if got := unsafe.Sizeof(Inst{}); got != 40 {
		t.Fatalf("isa.Inst is %d bytes, want 40", got)
	}
}

func TestClassString(t *testing.T) {
	cases := map[Class]string{
		ClassALU:      "alu",
		ClassFPU:      "fpu",
		ClassLoad:     "load",
		ClassStore:    "store",
		ClassBranch:   "branch",
		ClassCall:     "call",
		ClassReturn:   "return",
		ClassNop:      "nop",
		ClassPrefetch: "prefetch",
		ClassHint:     "hint",
		ClassIO:       "io",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("Class(%d).String() = %q, want %q", c, got, want)
		}
		if !c.Valid() {
			t.Errorf("Class %q reported invalid", want)
		}
	}
	if Class(200).Valid() {
		t.Error("Class(200) reported valid")
	}
	if !strings.Contains(Class(200).String(), "200") {
		t.Error("invalid class String() should include the raw value")
	}
}

func TestClassNeutral(t *testing.T) {
	neutral := []Class{ClassNop, ClassPrefetch, ClassHint}
	for _, c := range neutral {
		if !c.Neutral() {
			t.Errorf("%v should be neutral", c)
		}
	}
	nonNeutral := []Class{ClassALU, ClassFPU, ClassLoad, ClassStore, ClassBranch, ClassCall, ClassReturn, ClassIO}
	for _, c := range nonNeutral {
		if c.Neutral() {
			t.Errorf("%v should not be neutral", c)
		}
	}
}

func TestClassIsMem(t *testing.T) {
	mem := []Class{ClassLoad, ClassStore, ClassPrefetch, ClassIO}
	for _, c := range mem {
		if !c.IsMem() {
			t.Errorf("%v should be memory class", c)
		}
	}
	if ClassALU.IsMem() || ClassBranch.IsMem() || ClassNop.IsMem() {
		t.Error("non-memory class reported IsMem")
	}
}

func TestClassIsControl(t *testing.T) {
	for _, c := range []Class{ClassBranch, ClassCall, ClassReturn} {
		if !c.IsControl() {
			t.Errorf("%v should be control class", c)
		}
	}
	for _, c := range []Class{ClassALU, ClassLoad, ClassNop, ClassIO} {
		if c.IsControl() {
			t.Errorf("%v should not be control class", c)
		}
	}
}

func TestRegConstructors(t *testing.T) {
	r := IntReg(5)
	if !r.IsInt() || r.IsFP() || r.IsPred() {
		t.Errorf("IntReg(5) classification wrong: %v", r)
	}
	if r.String() != "r5" {
		t.Errorf("IntReg(5).String() = %q", r.String())
	}
	f := FPReg(12)
	if !f.IsFP() || f.IsInt() || f.IsPred() {
		t.Errorf("FPReg(12) classification wrong: %v", f)
	}
	if f.String() != "f12" {
		t.Errorf("FPReg(12).String() = %q", f.String())
	}
	p := PredReg(3)
	if !p.IsPred() || p.IsInt() || p.IsFP() {
		t.Errorf("PredReg(3) classification wrong: %v", p)
	}
	if p.String() != "p3" {
		t.Errorf("PredReg(3).String() = %q", p.String())
	}
	if RegNone.Valid() {
		t.Error("RegNone should not be Valid")
	}
	if RegNone.String() != "none" {
		t.Errorf("RegNone.String() = %q", RegNone.String())
	}
}

func TestRegConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"IntReg(-1)":  func() { IntReg(-1) },
		"IntReg(128)": func() { IntReg(128) },
		"FPReg(128)":  func() { FPReg(128) },
		"PredReg(64)": func() { PredReg(64) },
		"PredReg(-1)": func() { PredReg(-1) },
		"FPReg(-5)":   func() { FPReg(-5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestRegFilesDisjoint(t *testing.T) {
	// Property: every valid Reg belongs to exactly one file.
	f := func(n uint16) bool {
		r := Reg(n % NumRegs)
		count := 0
		if r.IsInt() {
			count++
		}
		if r.IsFP() {
			count++
		}
		if r.IsPred() {
			count++
		}
		return count == 1 && r.Valid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegRoundTrip(t *testing.T) {
	for i := 0; i < NumIntRegs; i++ {
		if got := IntReg(i); int(got) != i {
			t.Fatalf("IntReg(%d) = %d", i, got)
		}
	}
	for i := 0; i < NumFPRegs; i++ {
		r := FPReg(i)
		if !r.IsFP() {
			t.Fatalf("FPReg(%d) not FP", i)
		}
	}
	for i := 0; i < NumPredRegs; i++ {
		r := PredReg(i)
		if !r.IsPred() {
			t.Fatalf("PredReg(%d) not predicate", i)
		}
	}
}

func TestInstHasDest(t *testing.T) {
	in := Inst{Class: ClassALU, Dest: IntReg(4), Src1: IntReg(1), Src2: IntReg(2), PredGuard: RegNone}
	if !in.HasDest() {
		t.Error("plain ALU with dest should HasDest")
	}
	in.PredFalse = true
	if in.HasDest() {
		t.Error("pred-false instruction should not HasDest")
	}
	in.PredFalse = false
	in.WrongPath = true
	if in.HasDest() {
		t.Error("wrong-path instruction should not HasDest")
	}
	store := Inst{Class: ClassStore, Dest: RegNone}
	if store.HasDest() {
		t.Error("store without dest should not HasDest")
	}
}

func TestInstCommitted(t *testing.T) {
	in := Inst{Class: ClassALU}
	if !in.Committed() {
		t.Error("correct-path instruction should commit")
	}
	in.WrongPath = true
	if in.Committed() {
		t.Error("wrong-path instruction should not commit")
	}
	// Predicated-false instructions retire (commit) but write nothing.
	pf := Inst{Class: ClassALU, PredFalse: true}
	if !pf.Committed() {
		t.Error("pred-false instruction should still commit")
	}
}

func TestInstString(t *testing.T) {
	in := Inst{
		Seq: 7, Class: ClassLoad, Dest: IntReg(3), Src1: IntReg(1),
		Src2: RegNone, PredGuard: PredReg(2), Addr: 0x1000,
	}
	s := in.String()
	for _, want := range []string{"#7", "load", "r3", "r1", "p2", "0x1000"} {
		if !strings.Contains(s, want) {
			t.Errorf("Inst.String() = %q, missing %q", s, want)
		}
	}
	in.WrongPath = true
	if !strings.Contains(in.String(), "wrong-path") {
		t.Error("wrong-path marker missing from String()")
	}
	in.WrongPath = false
	in.PredFalse = true
	if !strings.Contains(in.String(), "pred-false") {
		t.Error("pred-false marker missing from String()")
	}
}

func TestLayoutTotals(t *testing.T) {
	if EntryPayloadBits != 41 {
		t.Fatalf("EntryPayloadBits = %d, want 41 (IA-64 syllable)", EntryPayloadBits)
	}
	sum := 0
	for f := Field(0); f < NumFields; f++ {
		if FieldBits[f] <= 0 {
			t.Fatalf("field %v has non-positive width", f)
		}
		sum += FieldBits[f]
	}
	if sum != EntryPayloadBits {
		t.Fatalf("field widths sum to %d, want %d", sum, EntryPayloadBits)
	}
}

func TestFieldOffsetsContiguous(t *testing.T) {
	prevEnd := 0
	for f := Field(0); f < NumFields; f++ {
		off := FieldOffset(f)
		if off != prevEnd {
			t.Fatalf("field %v offset = %d, want %d", f, off, prevEnd)
		}
		prevEnd = off + FieldBits[f]
	}
	if prevEnd != EntryPayloadBits {
		t.Fatalf("layout ends at %d, want %d", prevEnd, EntryPayloadBits)
	}
}

func TestFieldOfBit(t *testing.T) {
	// Every bit maps to the field whose span contains it.
	for f := Field(0); f < NumFields; f++ {
		start := FieldOffset(f)
		for b := start; b < start+FieldBits[f]; b++ {
			if got := FieldOfBit(b); got != f {
				t.Fatalf("FieldOfBit(%d) = %v, want %v", b, got, f)
			}
		}
	}
}

func TestFieldOfBitPanics(t *testing.T) {
	for _, bit := range []int{-1, EntryPayloadBits, EntryPayloadBits + 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FieldOfBit(%d) did not panic", bit)
				}
			}()
			FieldOfBit(bit)
		}()
	}
}

func TestFieldString(t *testing.T) {
	want := map[Field]string{
		FieldOpcode: "opcode", FieldDest: "dest", FieldSrc1: "src1",
		FieldSrc2: "src2", FieldPred: "pred", FieldImm: "imm",
	}
	for f, w := range want {
		if f.String() != w {
			t.Errorf("Field(%d).String() = %q, want %q", f, f.String(), w)
		}
	}
	if !strings.Contains(Field(99).String(), "99") {
		t.Error("invalid field String() should include raw value")
	}
}
