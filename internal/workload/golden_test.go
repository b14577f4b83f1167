package workload_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"softerror/internal/isa"
	"softerror/internal/rng"
	"softerror/internal/spec"
	"softerror/internal/workload"
)

// instHasher folds instructions into an FNV-64a digest field by field, so
// the digest depends on each field's value and never on struct layout or
// padding.
type instHasher struct {
	h   hash.Hash64
	buf [8]byte
}

func newInstHasher() *instHasher { return &instHasher{h: fnv.New64a()} }

func (x *instHasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(x.buf[:], v)
	x.h.Write(x.buf[:])
}

func (x *instHasher) flag(b bool) {
	if b {
		x.u64(1)
	} else {
		x.u64(0)
	}
}

func (x *instHasher) add(in *isa.Inst) {
	x.u64(in.Seq)
	x.u64(in.PC)
	x.u64(uint64(in.Class))
	x.u64(uint64(int64(in.Dest)))
	x.u64(uint64(int64(in.Src1)))
	x.u64(uint64(int64(in.Src2)))
	x.u64(uint64(int64(in.PredGuard)))
	x.flag(in.PredFalse)
	x.flag(in.WrongPath)
	x.flag(in.Taken)
	x.flag(in.Mispred)
	x.u64(in.Addr)
	x.u64(uint64(in.MemSize))
	x.u64(uint64(in.CallDepth))
	x.u64(uint64(in.FetchBubble))
}

// streamGolden holds, per roster benchmark, the digest of the first
// goldenBody correct-path instructions followed by the first goldenWrong
// wrong-path draws of its shared stream. The constants were computed from
// the generator as it stood before its draw kernels were optimised; every
// RNG draw and every decoded field must stay as it was.
var streamGolden = map[string]uint64{
	"bzip2-source":     0x77f51629ceffcd89,
	"cc-200":           0x917338b8badb7a50,
	"crafty":           0xeedc92692daae64b,
	"eon-kajiya":       0xa319d89611adfbdc,
	"gap":              0xd4c7f34c839c47ef,
	"gzip-graphic":     0x708219e1aee8b53e,
	"mcf":              0x81214a078b7e660f,
	"parser":           0xf589bfa2a2a8ff,
	"perlbmk-makerand": 0x822db1af3f278002,
	"twolf":            0x4ea9b10a01fdc4e3,
	"vortex-lendian3":  0x2424725b8c2bc61f,
	"vpr-route":        0xc7e53c7af46440c,
	"ammp":             0xeb02c91dfbcdf8a0,
	"applu":            0x599f2c43992793d4,
	"apsi":             0x87d6fbda19a10107,
	"art-110":          0x8b7f666441155508,
	"equake":           0xd0c88cb12069b35,
	"facerec":          0x859beb905dd3ade2,
	"fma3d":            0xc4a56d708ce6330e,
	"galgel":           0xe2684ef621213c04,
	"lucas":            0x5acaadc40de025ab,
	"mesa":             0x9dd6bddab881b219,
	"mgrid":            0x17355c8c80879754,
	"sixtrack":         0xddea35aa6be0f6e6,
	"swim":             0x84806d1749dc23f,
	"wupwise":          0xe71c591221070a14,
}

const (
	goldenBody  = 100_000
	goldenWrong = 25_000
	// gshareGolden is the digest of the interleaved Next/NextWrong run in
	// TestStreamGolden's gshare case.
	gshareGolden = 0x8e3dc767d39e8ea
)

// TestStreamGolden pins the decoded instruction streams of the whole
// roster, and one PC-indexed generator driven through Next and NextWrong,
// against digests taken before the generator's kernels were rewritten. The
// relabeling tests compare two generators running the same code; this is
// the test that notices a changed draw.
func TestStreamGolden(t *testing.T) {
	for _, b := range spec.All() {
		sh, err := workload.NewShared(b.Params)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		x := newInstHasher()
		for n := 0; n < goldenBody; n++ {
			x.add(sh.Body(n))
		}
		for j := 0; j < goldenWrong; j++ {
			in := sh.Wrong(j)
			x.add(&in)
		}
		if got, want := x.h.Sum64(), streamGolden[b.Name]; got != want {
			t.Errorf("%s: stream digest %#x, want %#x", b.Name, got, want)
		}
	}

	p := workload.Default()
	p.BranchPredictor = "gshare"
	g := workload.MustNew(p)
	drive := rng.New(7, 0x601d)
	x := newInstHasher()
	for i := 0; i < 60_000; i++ {
		var in isa.Inst
		if drive.Uint32()%11 == 0 {
			in = g.NextWrong()
		} else {
			in = g.Next()
		}
		x.add(&in)
	}
	if got := x.h.Sum64(); got != gshareGolden {
		t.Errorf("gshare interleaving digest %#x, want %#x", got, gshareGolden)
	}
}
