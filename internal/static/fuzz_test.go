package static

import (
	"reflect"
	"testing"

	"softerror/internal/isa"
	"softerror/internal/pipeline"
)

// decodeFuzzBody turns arbitrary bytes into an instruction body, 6 bytes
// per instruction, without sanitising the result: out-of-range classes,
// invalid register indices and contradictory flag sets are exactly the
// malformed programs the analyzer must bound without panicking.
func decodeFuzzBody(data []byte) []isa.Inst {
	n := len(data) / 6
	if n > 4096 {
		n = 4096
	}
	body := make([]isa.Inst, n)
	for i := 0; i < n; i++ {
		b := data[i*6 : i*6+6]
		in := &body[i]
		in.Seq = uint64(i)
		in.Class = isa.Class(b[0])
		reg := func(v byte) isa.Reg {
			if v == 0xFF {
				return isa.RegNone
			}
			return isa.Reg(int(v) * isa.NumRegs / 255)
		}
		in.Dest, in.Src1, in.Src2 = reg(b[1]), reg(b[2]), reg(b[3])
		if b[4]&1 != 0 {
			in.PredGuard = reg(b[4] >> 1)
		} else {
			in.PredGuard = isa.RegNone
		}
		in.PredFalse = b[5]&1 != 0
		in.WrongPath = b[5]&2 != 0
		in.Mispred = b[5]&4 != 0
		in.Taken = b[5]&8 != 0
		in.FetchBubble = b[5] >> 4
	}
	return body
}

// FuzzStaticBound drives malformed programs and degenerate configs through
// Load/Query. Whatever the input, the analyzer must not panic, every bound
// must be a fraction in [0, 1], querying twice must be bit-identical, and
// Estimate must price exactly Query's EstCycles.
func FuzzStaticBound(f *testing.F) {
	f.Add([]byte{}, uint64(0), 0, 0, 0, 0, 0, 0, 0, false)
	f.Add([]byte{3, 0, 1, 2, 0, 0}, uint64(1), 6, 6, 64, 8, 3, 16, 6, false)
	f.Add([]byte{7, 255, 255, 255, 0, 0, 4, 9, 1, 2, 3, 5}, uint64(2), 1, 1, 1, 1, 1, 1, 1, true)
	f.Add([]byte{2, 0, 0, 0, 0, 255, 3, 1, 1, 1, 1, 255}, uint64(1000), -4, 0, 1<<30, -1, 0, 0, -9, true)
	f.Add([]byte{255, 254, 253, 252, 251, 250}, ^uint64(0), 8, 8, 128, 12, 6, 31, 12, false)
	f.Fuzz(func(t *testing.T, data []byte, commits uint64,
		iw, fw, iq, fed, brl, sb, sdl int, ooo bool) {
		body := decodeFuzzBody(data)
		a := NewAnalyzer()
		a.Load(body, commits)
		cfg := pipeline.Config{
			IssueWidth: iw, FetchWidth: fw, IQSize: iq,
			FrontEndDepth: fed, BranchResolveLatency: brl,
			StoreBufferSize: sb, StoreDrainLatency: sdl,
			OutOfOrder: ooo,
		}
		est := a.Estimate(cfg)
		b1 := a.Query(cfg)
		b2 := a.Query(cfg)
		if !reflect.DeepEqual(b1, b2) {
			t.Fatalf("Query not deterministic:\n%+v\n%+v", b1, b2)
		}
		if est != b1.EstCycles {
			t.Fatalf("Estimate %d, Query EstCycles %d (cfg=%+v)", est, b1.EstCycles, cfg)
		}
		frac := func(name string, v float64) {
			if v < 0 || v > 1 || v != v {
				t.Fatalf("%s = %v out of [0,1] (cfg=%+v, %d insts, commits=%d)",
					name, v, cfg, len(body), commits)
			}
		}
		for _, s := range []struct {
			name string
			b    StructBounds
		}{{"IQ", b1.IQ}, {"FrontEnd", b1.FrontEnd}, {"StoreBuffer", b1.StoreBuffer}, {"RegFile", b1.RegFile}} {
			frac(s.name+".SDC", s.b.SDC)
			frac(s.name+".FalseDUE", s.b.FalseDUE)
			frac(s.name+".DUE", s.b.DUE)
		}
		for _, v := range b1.IQField {
			frac("IQField", v)
		}
	})
}
