package workload

import (
	"fmt"
	"strings"

	"softerror/internal/isa"
)

// FormatProgram renders an instruction body back into the kernel
// mini-language accepted by ParseProgram. Formatting then parsing yields
// the original body (modulo Seq/PC stamps, which the parser does not
// produce). Only tests need the text form back, so it lives here, where
// the package's internal tests and its examples both see it.
func FormatProgram(body []isa.Inst) string {
	var b strings.Builder
	for i := range body {
		in := &body[i]
		if in.PredGuard != isa.RegNone {
			mark := ""
			if in.PredFalse {
				mark = "!"
			}
			fmt.Fprintf(&b, "(%s%s) ", in.PredGuard, mark)
		}
		switch in.Class {
		case isa.ClassALU:
			if in.Dest.IsPred() {
				fmt.Fprintf(&b, "cmp %s %s %s", in.Dest, operand(in.Src1), operand(in.Src2))
			} else {
				fmt.Fprintf(&b, "alu %s %s %s", in.Dest, operand(in.Src1), operand(in.Src2))
			}
		case isa.ClassFPU:
			fmt.Fprintf(&b, "fpu %s %s %s", in.Dest, operand(in.Src1), operand(in.Src2))
		case isa.ClassLoad:
			fmt.Fprintf(&b, "load %s %s 0x%x", in.Dest, operand(in.Src1), in.Addr)
		case isa.ClassStore:
			fmt.Fprintf(&b, "store %s %s 0x%x", operand(in.Src1), operand(in.Src2), in.Addr)
		case isa.ClassPrefetch:
			fmt.Fprintf(&b, "prefetch %s 0x%x", in.Src1, in.Addr)
		case isa.ClassNop:
			b.WriteString("nop")
		case isa.ClassHint:
			b.WriteString("hint")
		case isa.ClassBranch:
			fmt.Fprintf(&b, "br %s", in.Src1)
			if in.Taken {
				b.WriteString(" taken")
			}
			if in.Mispred {
				b.WriteString(" mispred")
			}
		case isa.ClassCall:
			b.WriteString("call")
		case isa.ClassReturn:
			b.WriteString("ret")
		default:
			fmt.Fprintf(&b, "# unrepresentable class %v", in.Class)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func operand(r isa.Reg) string {
	if r == isa.RegNone {
		return "-"
	}
	return r.String()
}
