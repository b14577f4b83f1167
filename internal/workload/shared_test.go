package workload

import (
	"errors"
	"math"
	"testing"

	"softerror/internal/isa"
	"softerror/internal/rng"
)

// TestSharedRelabeling pins the stream-sharing identity the batch
// evaluator rests on: a generator driven with an arbitrary interleaving of
// Next and NextWrong emits exactly the Shared memo's instructions under the
// documented Seq/PC/CallDepth relabeling. The interleaving is drawn per
// seed, so a seed sweep exercises many wrong-path burst patterns.
func TestSharedRelabeling(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		p := Default()
		p.Seed = seed
		p.MispredictRate = 0.05 + 0.02*float64(seed)
		solo := MustNew(p)
		sh, err := NewShared(p)
		if err != nil {
			t.Fatal(err)
		}
		drive := rng.New(seed, 0xAB1E)
		n, w := 0, 0 // correct-path cursor, wrong-path draws so far
		for i := 0; i < 20_000; i++ {
			if n > 0 && drive.Bool(0.08) {
				want := solo.NextWrong()
				got := sh.Wrong(w)
				got.Seq = uint64(n + w)
				got.PC = sh.Body(n).PC + 4*uint64(w)
				got.CallDepth = sh.Body(n - 1).CallDepth
				w++
				if want != got {
					t.Fatalf("seed %d: wrong-path draw %d diverges:\n solo %+v\n memo %+v",
						seed, w-1, want, got)
				}
				continue
			}
			want := solo.Next()
			got := *sh.Body(n)
			got.Seq += uint64(w)
			got.PC += 4 * uint64(w)
			n++
			if want != got {
				t.Fatalf("seed %d: correct-path position %d diverges:\n solo %+v\n memo %+v",
					seed, n-1, want, got)
			}
		}
	}
}

// TestSharedRejectsPCIndexedPredictors pins the typed fallback error.
func TestSharedRejectsPCIndexedPredictors(t *testing.T) {
	for _, bp := range []string{"gshare", "bimodal"} {
		p := Default()
		p.BranchPredictor = bp
		if _, err := NewShared(p); !errors.Is(err, ErrUnshareable) {
			t.Fatalf("NewShared(%s) = %v, want ErrUnshareable", bp, err)
		}
	}
	p := Default()
	p.BranchPredictor = "statistical"
	if _, err := NewShared(p); err != nil {
		t.Fatalf("NewShared(statistical) = %v", err)
	}
}

// TestSharedBodyIsPureCorrectPath pins the memo's coordinate system:
// Body(n).Seq == n for every n.
func TestSharedBodyIsPureCorrectPath(t *testing.T) {
	sh, err := NewShared(Default())
	if err != nil {
		t.Fatal(err)
	}
	var last *isa.Inst
	for n := 0; n < 5_000; n++ {
		in := sh.Body(n)
		if in.Seq != uint64(n) {
			t.Fatalf("Body(%d).Seq = %d", n, in.Seq)
		}
		last = in
	}
	if last.PC == 0 {
		t.Fatal("body PCs never advanced")
	}
}

// TestSharedRecycle pins memo recycling: a stream decoded into a recycled
// stream's arrays equals a fresh decode (every slot is overwritten, the
// old content never shows through), and recycling into a stream that has
// already generated anything panics.
func TestSharedRecycle(t *testing.T) {
	a, b := Default(), Default()
	b.Seed = 99
	b.LoadFrac, b.FPFrac = 0.3, 0.1
	old, err := NewShared(a)
	if err != nil {
		t.Fatal(err)
	}
	old.BodyPrefix(5000)
	old.Wrong(1000)
	fresh, _ := NewShared(b)
	reused, _ := NewShared(b)
	reused.Recycle(old)
	for n := 0; n < 6000; n++ {
		if *reused.Body(n) != *fresh.Body(n) {
			t.Fatalf("recycled body %d = %+v, fresh %+v", n, *reused.Body(n), *fresh.Body(n))
		}
	}
	for j := 0; j < 1200; j++ {
		if reused.Wrong(j) != fresh.Wrong(j) {
			t.Fatalf("recycled wrong draw %d = %+v, fresh %+v", j, reused.Wrong(j), fresh.Wrong(j))
		}
	}

	for name, use := range map[string]func(*Shared){
		"body":  func(s *Shared) { s.Body(0) },
		"wrong": func(s *Shared) { s.Wrong(0) },
	} {
		func() {
			s, _ := NewShared(b)
			use(s)
			defer func() {
				if recover() == nil {
					t.Errorf("Recycle after a %s draw did not panic", name)
				}
			}()
			donor, _ := NewShared(a)
			s.Recycle(donor)
		}()
	}
}

// TestWrongRecRoundTrip pins the packed wrong-path memo: every draw
// wrongInto produces packs into a wrongRec and expands back to exactly the
// same instruction, across every draw kind and many stream seeds.
func TestWrongRecRoundTrip(t *testing.T) {
	kinds := make(map[isa.Class]int)
	for seed := uint64(0); seed < 16; seed++ {
		checkWrongRoundTrip(t, seed, 5000, kinds)
	}
	for _, c := range []isa.Class{isa.ClassALU, isa.ClassLoad, isa.ClassFPU, isa.ClassNop, isa.ClassBranch} {
		if kinds[c] == 0 {
			t.Errorf("no %v draw exercised", c)
		}
	}
}

// FuzzWrongRecRoundTrip extends TestWrongRecRoundTrip to arbitrary
// wrong-path stream seeds.
func FuzzWrongRecRoundTrip(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(0x5e7e))
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkWrongRoundTrip(t, seed, 256, make(map[isa.Class]int))
	})
}

// checkWrongRoundTrip round-trips draws wrong-path draws of one stream
// seed, counting them by class into kinds.
func checkWrongRoundTrip(t *testing.T, seed uint64, draws int, kinds map[isa.Class]int) {
	t.Helper()
	s := rng.New(seed, 0x5e7e).Derive("wrong")
	for j := 0; j < draws; j++ {
		var in isa.Inst
		wrongInto(s, &in)
		kinds[in.Class]++
		if got := packWrong(&in).inst(); got != in {
			t.Fatalf("seed %d draw %d: packed round trip gives %+v, want %+v", seed, j, got, in)
		}
	}
}

// TestWrongRecFieldsFit pins the ranges the packed record relies on: a
// wrong-path load's offset into its region fits 32 bits, every register a
// draw can name fits a byte as Reg+1 (0 standing for RegNone), and the
// record stays 8 bytes.
func TestWrongRecFieldsFit(t *testing.T) {
	if wrongSize > math.MaxUint32+1 {
		t.Errorf("wrong-path region of %d bytes overflows the 32-bit offset", wrongSize)
	}
	for _, r := range []isa.Reg{
		isa.IntReg(globalLo), isa.IntReg(globalHi),
		isa.FPReg(fpGlobalLo), isa.FPReg(fpGlobalHi), isa.RegNone,
	} {
		if r+1 < 0 || r+1 > math.MaxUint8 {
			t.Errorf("register %v does not fit a packed byte", r)
		}
	}
	if wrongRecBytes != 8 {
		t.Errorf("wrongRec is %d bytes, want 8", wrongRecBytes)
	}
}
