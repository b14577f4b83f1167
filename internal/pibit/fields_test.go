package pibit

import (
	"testing"

	"softerror/internal/ace"
	"softerror/internal/isa"
)

// TestFieldBitPartition pins the bit-level accounting contract between
// isa's entry layout and the π-bit machinery: the payload fields tile the
// entry exactly — every payload bit belongs to one field, field widths sum
// to the entry size, and the offset arithmetic the fault injector uses
// (FieldOfBit over strike offsets) agrees with the declared layout.
func TestFieldBitPartition(t *testing.T) {
	sum := 0
	for f := isa.Field(0); f < isa.NumFields; f++ {
		if isa.FieldBits[f] <= 0 {
			t.Fatalf("field %v has non-positive width %d", f, isa.FieldBits[f])
		}
		if off := isa.FieldOffset(f); off != sum {
			t.Errorf("FieldOffset(%v) = %d, want %d (packed declaration order)", f, off, sum)
		}
		sum += isa.FieldBits[f]
	}
	if sum != isa.EntryPayloadBits {
		t.Fatalf("field widths sum to %d, want EntryPayloadBits = %d", sum, isa.EntryPayloadBits)
	}

	var perField [isa.NumFields]int
	for bit := 0; bit < isa.EntryPayloadBits; bit++ {
		f := isa.FieldOfBit(bit)
		if f >= isa.NumFields {
			t.Fatalf("FieldOfBit(%d) = %v out of range", bit, f)
		}
		perField[f]++
		lo := isa.FieldOffset(f)
		if bit < lo || bit >= lo+isa.FieldBits[f] {
			t.Errorf("FieldOfBit(%d) = %v, but that field spans [%d,%d)",
				bit, f, lo, lo+isa.FieldBits[f])
		}
	}
	for f := isa.Field(0); f < isa.NumFields; f++ {
		if perField[f] != isa.FieldBits[f] {
			t.Errorf("field %v owns %d bits, want FieldBits = %d", f, perField[f], isa.FieldBits[f])
		}
	}
}

// TestVerdictByStruckField pins, field by field, the engine decisions that
// make per-field AVF accounting meaningful: anti-π clears a neutral
// instruction except for opcode strikes, a corrupted destination specifier
// can never be deferred, and commit-point π clears wrong-path and
// predicated-false strikes in every field.
func TestVerdictByStruckField(t *testing.T) {
	none := isa.RegNone
	clean := func(class isa.Class, dest isa.Reg) isa.Inst {
		return isa.Inst{Class: class, Dest: dest, Src1: none, Src2: none, PredGuard: none}
	}
	// log[0] is the struck instruction per case; log[1] overwrites the
	// same destination without reading it, so deferred π dies unread.
	overwrite := clean(isa.ClassALU, isa.IntReg(1))

	cases := []struct {
		name  string
		level ace.TrackLevel
		in    isa.Inst
		want  func(f isa.Field) Verdict
	}{
		{"parity signals every field", ace.TrackNever,
			clean(isa.ClassNop, none),
			func(isa.Field) Verdict { return VerdictSignalled }},
		{"commit pi clears wrong-path in every field", ace.TrackCommit,
			func() isa.Inst { in := clean(isa.ClassALU, isa.IntReg(1)); in.WrongPath = true; return in }(),
			func(isa.Field) Verdict { return VerdictSuppressed }},
		{"commit pi clears pred-false in every field", ace.TrackCommit,
			func() isa.Inst { in := clean(isa.ClassALU, isa.IntReg(1)); in.PredFalse = true; return in }(),
			func(isa.Field) Verdict { return VerdictSuppressed }},
		{"no anti-pi: neutral signals every field", ace.TrackCommit,
			clean(isa.ClassNop, none),
			func(isa.Field) Verdict { return VerdictSignalled }},
		{"anti-pi clears neutral except opcode", ace.TrackAntiPi,
			clean(isa.ClassNop, none),
			func(f isa.Field) Verdict {
				if f == isa.FieldOpcode {
					return VerdictSignalled
				}
				return VerdictSuppressed
			}},
		{"regfile pi: only the dest specifier is undeferrable", ace.TrackRegFile,
			clean(isa.ClassALU, isa.IntReg(1)),
			func(f isa.Field) Verdict {
				if f == isa.FieldDest {
					return VerdictSignalled
				}
				return VerdictSuppressed // pi on r1 is overwritten unread
			}},
	}
	for _, c := range cases {
		e := NewEngine(c.level)
		log := []isa.Inst{c.in, overwrite}
		for f := isa.Field(0); f < isa.NumFields; f++ {
			if got, want := e.Process(NewIndex(log), 0, f), c.want(f); got != want {
				t.Errorf("%s: struck field %v: verdict %v, want %v", c.name, f, got, want)
			}
		}
	}
}
