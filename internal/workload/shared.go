package workload

import (
	"errors"
	"fmt"
	"unsafe"

	"softerror/internal/isa"
	"softerror/internal/rng"
)

// ErrUnshareable marks a workload whose instruction stream cannot be
// decoded once and shared across machine configurations. PC-indexed branch
// predictors (gshare, bimodal) are the one case: wrong-path fetches shift
// every later correct-path PC by 4 bytes each, so the predictor — and with
// it the realised mispredict sequence — would observe configuration-
// dependent PCs. core gives each lane of such a workload its own
// generator behind a pipeline.PrivateSource instead.
var ErrUnshareable = errors.New(
	"workload: PC-indexed branch predictor makes the stream configuration-dependent")

// Shared is one workload's instruction stream decoded once, for concurrent
// replay into any number of machine configurations. It memoises two
// sequences:
//
//   - the correct-path body, generated with no wrong-path interleaving at
//     all, so Body(n) has Seq == n and the PC of a pure correct-path fetch;
//   - the wrong-path draw sequence, whose j-th element is the content of
//     the j-th wrong-path instruction any configuration would fetch.
//
// Every per-configuration stream is a relabeling of these: a machine that
// has fetched w wrong-path instructions before correct-path position n
// fetches Body(n) with Seq n+w and PC Body(n).PC + 4w, and its next
// wrong-path instruction is Wrong(w) with Seq n+w, PC Body(n).PC + 4w and
// the call depth of Body(n-1). The relabeling is exact because the
// generator's streams partition cleanly: the mix/branch/pred/addr/bp
// streams advance only on correct-path synthesis, the wrong stream only on
// wrong-path synthesis, and the Seq/PC counters shift uniformly. The
// stream-sharing seraudit checks pin this equivalence against independent
// generators.
//
// A Shared is not safe for concurrent use: each batch checks one out of
// a Store (or builds its own).
//
// Body generates straight into the memo slot it returns. A pointer or
// slice into the body memo stays valid until a later call extends it, or
// until the stream is recycled: Recycle hands the arrays to the next
// stream, which overwrites them. No one may hold a memo pointer past the
// batch that obtained it. The wrong-path memo holds packed records
// (wrongRec), so Wrong returns its draws by value.
type Shared struct {
	params   Params
	gen      *Generator
	wrongSrc *rng.Stream
	body     []isa.Inst
	wrong    []wrongRec
}

// NewShared decodes the workload lazily for shared replay. It fails with
// ErrUnshareable for PC-indexed branch predictors.
func NewShared(p Params) (*Shared, error) {
	switch p.BranchPredictor {
	case "gshare", "bimodal":
		return nil, fmt.Errorf("%w (%s)", ErrUnshareable, p.BranchPredictor)
	}
	gen, err := New(p)
	if err != nil {
		return nil, err
	}
	return &Shared{
		params:   p,
		gen:      gen,
		wrongSrc: rng.New(p.Seed, 0x5e7e).Derive("wrong"),
	}, nil
}

// Body returns the n-th correct-path instruction of the un-interleaved
// stream (Seq n, pure correct-path PC), extending the memo as needed. The
// returned pointer is valid until the next Body call extends the memo.
func (s *Shared) Body(n int) *isa.Inst {
	if i := len(s.body); n >= i {
		s.body = extend(s.body, n+1)
		for ; i <= n; i++ {
			s.gen.nextInto(&s.body[i])
		}
	}
	return &s.body[n]
}

// extend returns memo lengthened to n slots for the generator to fill.
// Slots within capacity may hold a recycled stream's instructions; the
// generator overwrites every field.
func extend[T any](memo []T, n int) []T {
	if n <= cap(memo) {
		return memo[:n]
	}
	return append(memo, make([]T, n-len(memo))...)
}

// BodyPrefix returns the first m correct-path instructions as a slice —
// the commit log every variant's deadness analysis classifies (deadness is
// Seq-value-independent, so the un-relabeled body stands in for any
// variant's log). The slice aliases the memo: valid until a Body call
// extends it.
func (s *Shared) BodyPrefix(m int) []isa.Inst {
	if m > 0 {
		s.Body(m - 1)
	}
	return s.body[:m]
}

// Reserve pre-sizes the memos for a run expected to touch about body
// correct-path and wrong wrong-path instructions, so the memo arrays grow
// once up front instead of doubling repeatedly mid-run. It only reserves
// capacity — no instructions are generated — and under-estimates are
// harmless: the memos keep growing on demand.
func (s *Shared) Reserve(body, wrong int) {
	if cap(s.body) < body {
		grown := make([]isa.Inst, len(s.body), body)
		copy(grown, s.body)
		s.body = grown
	}
	if cap(s.wrong) < wrong {
		grown := make([]wrongRec, len(s.wrong), wrong)
		copy(grown, s.wrong)
		s.wrong = grown
	}
}

// Recycle hands old's memo arrays to s, so that decoding s reuses their
// memory instead of allocating and zeroing its own. s must not have
// generated anything yet; it panics otherwise. old must not be used
// afterwards: its memos are gone, and any pointer into them now aliases
// s's instructions.
func (s *Shared) Recycle(old *Shared) {
	if len(s.body) > 0 || len(s.wrong) > 0 {
		panic("workload: Recycle into a Shared that has already generated")
	}
	if cap(old.body) > cap(s.body) {
		s.body = old.body[:0]
	}
	if cap(old.wrong) > cap(s.wrong) {
		s.wrong = old.wrong[:0]
	}
	old.gen, old.wrongSrc, old.body, old.wrong = nil, nil, nil, nil
}

// WrongDraws returns how many wrong-path instructions the stream has
// generated so far: the length of its wrong-path memo.
func (s *Shared) WrongDraws() int { return len(s.wrong) }

// capBytes is the memory the memos hold, in bytes of capacity.
func (s *Shared) capBytes() int64 {
	return memoBytes(cap(s.body), cap(s.wrong))
}

// Wrong returns the content of the j-th wrong-path instruction draw: Seq,
// PC and CallDepth are zero, for the replaying configuration to assign.
func (s *Shared) Wrong(j int) isa.Inst {
	if i := len(s.wrong); j >= i {
		s.wrong = extend(s.wrong, j+1)
		var in isa.Inst
		for ; i <= j; i++ {
			wrongInto(s.wrongSrc, &in)
			s.wrong[i] = packWrong(&in)
		}
	}
	return s.wrong[j].inst()
}

// wrongRec is one memoised wrong-path draw in 8 bytes. A draw's content
// is a pure function of its class, up to three registers and, for a load,
// an address in the wrong-path region (wrongInto); everything else is
// fixed (no guard, no outcome flags) or assigned by the replaying
// configuration (Seq, PC, CallDepth). off is a load's address less
// wrongBase; dest, src1 and src2 hold Reg+1, so 0 is RegNone.
// TestWrongRecRoundTrip pins that every draw packs and unpacks exactly.
type wrongRec struct {
	off              uint32
	class            isa.Class
	dest, src1, src2 uint8
}

// wrongRecBytes is the size of one wrong-path memo slot.
const wrongRecBytes = int64(unsafe.Sizeof(wrongRec{}))

// packWrong packs a draw wrongInto produced.
func packWrong(in *isa.Inst) wrongRec {
	r := wrongRec{
		class: in.Class,
		dest:  uint8(in.Dest + 1),
		src1:  uint8(in.Src1 + 1),
		src2:  uint8(in.Src2 + 1),
	}
	if in.Class == isa.ClassLoad {
		r.off = uint32(in.Addr - wrongBase)
	}
	return r
}

// inst expands the record into the draw wrongInto produced.
func (r wrongRec) inst() isa.Inst {
	in := isa.Inst{
		Class:     r.class,
		Dest:      isa.Reg(r.dest) - 1,
		Src1:      isa.Reg(r.src1) - 1,
		Src2:      isa.Reg(r.src2) - 1,
		PredGuard: isa.RegNone,
		WrongPath: true,
	}
	if r.class == isa.ClassLoad {
		in.Addr = wrongBase + uint64(r.off)
		in.MemSize = 8
	}
	return in
}

// WrongSite returns the fetch PC and call depth of wrong-path draw j taken
// while body n is the next correct-path fetch: Body(n)'s PC shifted by 4
// per preceding draw, and the call depth Body(n-1) left behind.
func (s *Shared) WrongSite(n, j int) (pc uint64, callDepth uint8) {
	pc = s.Body(n).PC + 4*uint64(j)
	if n > 0 {
		callDepth = s.Body(n - 1).CallDepth
	}
	return pc, callDepth
}
