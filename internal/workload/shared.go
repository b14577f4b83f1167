package workload

import (
	"errors"
	"fmt"

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
// Body and Wrong generate straight into the memo slot they return. A
// pointer or slice into the memos stays valid until a later call extends
// that memo, or until the stream is recycled: Recycle hands the arrays to
// the next stream, which overwrites them. No one may hold a memo pointer
// past the batch that obtained it.
type Shared struct {
	params   Params
	gen      *Generator
	wrongSrc *rng.Stream
	body     []isa.Inst
	wrong    []isa.Inst
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
func extend(memo []isa.Inst, n int) []isa.Inst {
	if n <= cap(memo) {
		return memo[:n]
	}
	return append(memo, make([]isa.Inst, n-len(memo))...)
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
		grown := make([]isa.Inst, len(s.wrong), wrong)
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

// capBytes is the memory the memos hold, in bytes of capacity.
func (s *Shared) capBytes() int64 {
	return int64(cap(s.body)+cap(s.wrong)) * instBytes
}

// Wrong returns the content of the j-th wrong-path instruction draw: Seq,
// PC and CallDepth are zero, for the replaying configuration to assign.
// The returned pointer is valid until the next Wrong call extends the memo.
func (s *Shared) Wrong(j int) *isa.Inst {
	if i := len(s.wrong); j >= i {
		s.wrong = extend(s.wrong, j+1)
		for ; i <= j; i++ {
			wrongInto(s.wrongSrc, &s.wrong[i])
		}
	}
	return &s.wrong[j]
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
