// Package workload synthesises dynamic instruction streams with
// statistically controlled properties, standing in for the SPEC CPU2000
// SimPoint slices the paper runs on its Asim Itanium®2 model.
//
// The architectural-vulnerability results in the paper are driven by
// workload *statistics* rather than by concrete program semantics: the mix
// of no-ops/prefetches (neutral instructions), the rate and depth of branch
// misprediction (wrong-path occupancy), the predicated-false fraction, the
// fraction of dynamically dead instructions (~20% across their binaries),
// and the cache-miss behaviour that determines how long instructions pool
// in the instruction queue. A Generator reproduces each of those properties
// from an explicit Params, seeded deterministically, so that the ACE
// analysis downstream discovers dead code, wrong paths and neutral
// instructions exactly the way the paper's analysis does — from the
// instruction stream itself.
package workload

import (
	"errors"
	"fmt"
)

// Params configures a synthetic workload. All *Frac fields are fractions of
// dynamic instructions in [0,1]; they need not sum to one — the remainder
// becomes live single-cycle integer ALU work.
type Params struct {
	// Name labels the workload in reports.
	Name string
	// FloatingPoint marks the workload as FP-dominated (affects reporting
	// groupings only; the instruction mix itself is set by the fields
	// below).
	FloatingPoint bool

	// Seed drives all stochastic choices for this workload.
	Seed uint64

	// Instruction mix. LoadFrac and StoreFrac are live memory operations;
	// FPFrac is live floating-point compute.
	LoadFrac  float64
	StoreFrac float64
	FPFrac    float64

	// IOFrac is the fraction of uncached I/O accesses (console writes,
	// device registers). I/O is where π-bits-through-memory must finally
	// signal (§4.3.3 design 4): values reaching a device are observable.
	IOFrac float64

	// Neutral instructions (the paper's second false-DUE source).
	NopFrac      float64
	PrefetchFrac float64
	HintFrac     float64

	// Control flow. BranchFrac is the fraction of dynamic conditional
	// branches; TakenProb their taken probability; MispredictRate the
	// fraction of branches fetched down the wrong path. CallFrac is the
	// fraction of dynamic call instructions (each paired with a return).
	BranchFrac     float64
	TakenProb      float64
	MispredictRate float64
	CallFrac       float64

	// Predication. PredicatedFrac of eligible ALU/FP instructions carry a
	// qualifying predicate; PredFalseProb of those evaluate false.
	PredicatedFrac float64
	PredFalseProb  float64

	// Dynamically dead instructions (the paper's third false-DUE source).
	// FDDRegFrac writes a register never read before overwrite; TDDRegFrac
	// feeds only dead consumers; DeadLocalFrac of per-procedure local
	// writes are left unread at return (dead via return); FDDMemFrac are
	// stores overwritten before any load.
	FDDRegFrac    float64
	TDDRegFrac    float64
	DeadLocalFrac float64
	FDDMemFrac    float64

	// Memory address stream: probability that a data access falls in each
	// working-set region. Region sizes are chosen so L0Frac hits the
	// 8KB L0, L1Frac the 256KB L1, L2Frac the 10MB L2, and MemFrac misses
	// everything. They are normalised internally.
	L0Frac  float64
	L1Frac  float64
	L2Frac  float64
	MemFrac float64

	// MissBurstiness is the probability that a data access stays in the
	// same non-hot working-set region as its predecessor, clustering cache
	// misses the way real reference streams do (a newly touched block
	// brings several misses together).
	MissBurstiness float64

	// FetchBubbleProb is the probability that a basic block starts with a
	// front-end delivery gap (instruction-cache miss, ITLB miss, or
	// dispersal break); FetchBubbleMean is the mean gap length in cycles
	// (geometric). Together they set the front end's sustainable delivery
	// bandwidth and therefore the instruction queue's idle fraction.
	FetchBubbleProb float64
	FetchBubbleMean int

	// BranchPredictor selects the front-end prediction model: "" or
	// "statistical" mispredicts at exactly MispredictRate; "gshare" and
	// "bimodal" use real table predictors (MispredictRate is then ignored
	// and the realised rate is organic).
	BranchPredictor string

	// MeanBlockLen is the mean instructions per basic block (geometric).
	MeanBlockLen int
	// MeanCalleeLen is the mean instructions executed per procedure call.
	MeanCalleeLen int
	// DepDistance is the mean distance (in producing instructions) between
	// a value's definition and its uses; smaller values create tighter
	// dependence chains and lower ILP.
	DepDistance int
	// LoadUseDistance is the minimum number of instructions between a load
	// and the first consumer of its result, modelling compiler load
	// hoisting: IA-64 compilers schedule consumers far from loads so that
	// first-level cache misses are fully hidden, while longer misses still
	// stall. 0 disables hoisting (consumers may follow immediately).
	LoadUseDistance int
}

// Validate reports a descriptive error for out-of-range parameters.
func (p *Params) Validate() error {
	type frac struct {
		name string
		v    float64
	}
	fracs := []frac{
		{"LoadFrac", p.LoadFrac}, {"StoreFrac", p.StoreFrac}, {"FPFrac", p.FPFrac},
		{"IOFrac", p.IOFrac},
		{"NopFrac", p.NopFrac}, {"PrefetchFrac", p.PrefetchFrac}, {"HintFrac", p.HintFrac},
		{"BranchFrac", p.BranchFrac}, {"TakenProb", p.TakenProb},
		{"MispredictRate", p.MispredictRate}, {"CallFrac", p.CallFrac},
		{"PredicatedFrac", p.PredicatedFrac}, {"PredFalseProb", p.PredFalseProb},
		{"FDDRegFrac", p.FDDRegFrac}, {"TDDRegFrac", p.TDDRegFrac},
		{"DeadLocalFrac", p.DeadLocalFrac}, {"FDDMemFrac", p.FDDMemFrac},
		{"L0Frac", p.L0Frac}, {"L1Frac", p.L1Frac}, {"L2Frac", p.L2Frac},
		{"MemFrac", p.MemFrac},
	}
	for _, f := range fracs {
		if !(f.v >= 0 && f.v <= 1) { // NaN fails too
			return fmt.Errorf("workload: %s = %v out of [0,1]", f.name, f.v)
		}
	}
	mix := p.LoadFrac + p.StoreFrac + p.FPFrac + p.IOFrac + p.NopFrac +
		p.PrefetchFrac + p.HintFrac + p.BranchFrac + p.CallFrac +
		p.FDDRegFrac + p.TDDRegFrac + p.FDDMemFrac
	if mix > 1 {
		return fmt.Errorf("workload: instruction mix fractions sum to %v > 1", mix)
	}
	if p.L0Frac+p.L1Frac+p.L2Frac+p.MemFrac <= 0 {
		return errors.New("workload: all working-set fractions are zero")
	}
	if p.MeanBlockLen < 1 {
		return fmt.Errorf("workload: MeanBlockLen = %d, want >= 1", p.MeanBlockLen)
	}
	if p.MeanCalleeLen < 1 {
		return fmt.Errorf("workload: MeanCalleeLen = %d, want >= 1", p.MeanCalleeLen)
	}
	if p.DepDistance < 1 {
		return fmt.Errorf("workload: DepDistance = %d, want >= 1", p.DepDistance)
	}
	if p.LoadUseDistance < 0 {
		return fmt.Errorf("workload: LoadUseDistance = %d, want >= 0", p.LoadUseDistance)
	}
	switch p.BranchPredictor {
	case "", "statistical", "gshare", "bimodal":
	default:
		return fmt.Errorf("workload: unknown BranchPredictor %q", p.BranchPredictor)
	}
	if !(p.MissBurstiness >= 0 && p.MissBurstiness <= 1) {
		return fmt.Errorf("workload: MissBurstiness = %v out of [0,1]", p.MissBurstiness)
	}
	if !(p.FetchBubbleProb >= 0 && p.FetchBubbleProb <= 1) {
		return fmt.Errorf("workload: FetchBubbleProb = %v out of [0,1]", p.FetchBubbleProb)
	}
	if p.FetchBubbleProb > 0 && p.FetchBubbleMean < 1 {
		return fmt.Errorf("workload: FetchBubbleMean = %d, want >= 1 when bubbles enabled", p.FetchBubbleMean)
	}
	return nil
}

// Default returns a mid-of-the-road integer workload whose statistics sit
// near the paper's cross-benchmark averages: ~20% dynamically dead
// instructions, ~25% neutral instructions, moderate miss rates.
func Default() Params {
	return Params{
		Name:            "default",
		Seed:            1,
		LoadFrac:        0.17,
		StoreFrac:       0.08,
		FPFrac:          0.05,
		IOFrac:          0.0005,
		NopFrac:         0.26,
		PrefetchFrac:    0.04,
		HintFrac:        0.01,
		BranchFrac:      0.08,
		TakenProb:       0.6,
		MispredictRate:  0.06,
		CallFrac:        0.01,
		PredicatedFrac:  0.15,
		PredFalseProb:   0.35,
		FDDRegFrac:      0.04,
		TDDRegFrac:      0.025,
		DeadLocalFrac:   0.25,
		FDDMemFrac:      0.02,
		L0Frac:          0.9862,
		L1Frac:          0.0088,
		L2Frac:          0.0045,
		MemFrac:         0.0005,
		MissBurstiness:  0.75,
		FetchBubbleProb: 0.18,
		FetchBubbleMean: 3,
		MeanBlockLen:    8,
		MeanCalleeLen:   40,
		DepDistance:     5,
		LoadUseDistance: 16,
	}
}
