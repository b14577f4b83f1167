// Package fault implements single-bit fault injection into the instruction
// queue: a Monte-Carlo campaign that samples strikes uniformly over the
// queue's (entry × bit × cycle) space and classifies each outcome according
// to Figure 1 of the paper — benign, silent data corruption (SDC), true
// detected unrecoverable error (true DUE), or false DUE — under a
// configurable protection scheme and π-bit tracking level.
//
// The campaign is the empirical cross-check of the analytic ACE-based AVFs:
// with enough strikes, the measured SDC fraction converges to the SDC AVF
// of the unprotected queue, and the measured (true + false) DUE fractions
// converge to the DUE AVF decomposition of the parity-protected queue.
package fault

import (
	"context"
	"fmt"
	"sort"

	"softerror/internal/ace"
	"softerror/internal/cache"
	"softerror/internal/isa"
	"softerror/internal/pibit"
	"softerror/internal/pipeline"
	"softerror/internal/rng"
)

// Outcome classifies one injected strike, mirroring Figure 1.
type Outcome uint8

const (
	// OutcomeIdle: the struck entry held no instruction (outcome 1).
	OutcomeIdle Outcome = iota
	// OutcomeNeverRead: the struck copy was never read after the strike —
	// squashed, flushed, or past its last issue (outcomes 1-2).
	OutcomeNeverRead
	// OutcomeBenignUnACE: read, but the bit cannot affect the outcome and
	// no detection is present (outcome 3).
	OutcomeBenignUnACE
	// OutcomeSDC: read, outcome-changing, undetected (outcome 4).
	OutcomeSDC
	// OutcomeFalseDUE: detected and signalled, but the program outcome
	// would have been unaffected (outcome 5).
	OutcomeFalseDUE
	// OutcomeTrueDUE: detected and signalled, outcome-changing (outcome 6).
	OutcomeTrueDUE
	// OutcomeSuppressed: detected, and the π-bit machinery proved the
	// error false before signalling — the paper's false-DUE reduction.
	OutcomeSuppressed
	// OutcomeLatent: detected and still tracked by π state when the
	// observation window closed; no error signalled, none lost.
	OutcomeLatent
	// OutcomeMissedError: the machinery suppressed an outcome-changing
	// error. This must never happen; the campaign counts it as a safety
	// invariant.
	OutcomeMissedError

	// NumOutcomes is the number of outcome classes.
	NumOutcomes = iota
)

var outcomeNames = [NumOutcomes]string{
	"idle", "never-read", "benign-unace", "sdc",
	"false-due", "true-due", "suppressed", "latent", "missed-error",
}

// String names the outcome.
func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// Config parameterises a campaign.
type Config struct {
	// Protection is the queue's error-detection scheme: ProtNone (SDC
	// study) or ProtParity (DUE study). ProtECC yields all-benign.
	Protection cache.Protection
	// Level is the deployed π-bit tracking level (parity only);
	// ace.TrackNever models the conservative signal-on-detect baseline.
	Level ace.TrackLevel
	// PETEntries sizes the PET buffer at ace.TrackPET (default 512).
	PETEntries int
	// Strikes is the number of injected faults.
	Strikes int
	// Seed drives the strike sampler.
	Seed uint64
}

// Result tallies a campaign.
type Result struct {
	Counts  [NumOutcomes]uint64
	Strikes uint64
}

// Frac returns the fraction of strikes with the given outcome.
func (r *Result) Frac(o Outcome) float64 {
	if r.Strikes == 0 {
		return 0
	}
	return float64(r.Counts[o]) / float64(r.Strikes)
}

// SDCFraction estimates the SDC AVF (meaningful for ProtNone campaigns).
func (r *Result) SDCFraction() float64 { return r.Frac(OutcomeSDC) }

// DUEFraction estimates the DUE AVF (true + false) for parity campaigns.
func (r *Result) DUEFraction() float64 {
	return r.Frac(OutcomeTrueDUE) + r.Frac(OutcomeFalseDUE)
}

// FalseDUEFraction estimates the false-DUE AVF.
func (r *Result) FalseDUEFraction() float64 { return r.Frac(OutcomeFalseDUE) }

// Injector samples strikes against the residency record of one structure
// (the instruction queue by default; the front-end fetch buffer via
// NewFrontEndInjector). It is read-only once built, so campaign workers
// share it.
type Injector struct {
	residencies []pipeline.Residency
	// pos is each residency's commit-log position, or -1 when the
	// instruction never reached the log (wrong path, or issued after the
	// recorded log ended).
	pos  []int32
	ix   *pibit.Index
	dead *ace.Deadness

	cum      []uint64 // cumulative occupied bit-cycles per residency
	totalOcc uint64
	capacity uint64
}

// NewInjector prepares fault injection over a trace's instruction-queue
// residencies and its deadness analysis.
func NewInjector(tr *pipeline.Trace, dead *ace.Deadness) *Injector {
	return NewStructureInjector(tr.Residencies, tr.Cycles, tr.IQSize, tr.CommitLog, dead)
}

// NewFrontEndInjector prepares fault injection over the fetch buffer: the
// structure §4.2's chunk-granularity π bits protect. A strike is detected
// when the chunk is read at delivery to decode; the same commit-path
// machinery then decides its fate.
func NewFrontEndInjector(tr *pipeline.Trace, dead *ace.Deadness) *Injector {
	return NewStructureInjector(tr.FrontEnd, tr.Cycles, tr.FrontEndCap, tr.CommitLog, dead)
}

// NewROBInjector prepares fault injection over the out-of-order family's
// reorder-buffer residencies (traces recorded with Config.OutOfOrder).
// Retire is the read point, and only correct-path entries are ever read,
// so the commit-path machinery decides each strike's fate exactly as for
// the IQ. The load/store queue and the TAGE tables are analysed at report
// level, like the store buffer: their payloads are addresses, data and
// predictor state rather than instruction entries.
func NewROBInjector(tr *pipeline.Trace, dead *ace.Deadness) *Injector {
	return NewStructureInjector(tr.ROB, tr.Cycles, tr.ROBCap, tr.CommitLog, dead)
}

// NewStructureInjector prepares fault injection over arbitrary residency
// intervals of a structure with the given entry count. The log is the
// committed stream in program order (ascending Seq) and dead its deadness
// analysis, so that dead.OfPos(i) classifies log[i].
func NewStructureInjector(res []pipeline.Residency, cycles uint64, entries int, log []isa.Inst, dead *ace.Deadness) *Injector {
	inj := &Injector{
		residencies: res,
		pos:         pipeline.LogPositions(res, log),
		ix:          pibit.NewIndex(log),
		dead:        dead,
		capacity:    cycles * uint64(entries) * uint64(isa.EntryPayloadBits),
		cum:         make([]uint64, len(res)),
	}
	var acc uint64
	for i := range res {
		acc += res[i].Occupancy() * uint64(isa.EntryPayloadBits)
		inj.cum[i] = acc
	}
	inj.totalOcc = acc
	return inj
}

// strikeSeqBase offsets the RNG sequence space of strike streams; each
// strike index derives its own PCG sequence from it.
const strikeSeqBase = uint64(0xfa17) << 32

// strikeStream returns strike i's private RNG stream. Deriving the stream
// from (seed, index) — rather than drawing all strikes from one sequential
// stream — makes every strike an independently addressable unit of work:
// any partition of the index space (chunked checkpoints, parallel fan-out,
// resumed campaigns, single-strike replays) tallies exactly what a serial
// sweep of [0, Strikes) would.
func strikeStream(seed uint64, i int) rng.Stream {
	return rng.Make(seed, strikeSeqBase+uint64(i))
}

// Merge folds o's tallies into r. Campaign chunks merged in any order
// reproduce the full campaign exactly (unsigned addition is exact and
// commutative).
func (r *Result) Merge(o *Result) {
	for i := range r.Counts {
		r.Counts[i] += o.Counts[i]
	}
	r.Strikes += o.Strikes
}

// engine builds the tracking engine a campaign configuration implies.
func (cfg Config) engine() *pibit.Engine {
	pet := cfg.PETEntries
	if pet <= 0 {
		pet = 512
	}
	return &pibit.Engine{Level: cfg.Level, PETEntries: pet, Window: pibit.DefaultWindow}
}

// Run executes a campaign and returns the tallied outcomes.
func (inj *Injector) Run(cfg Config) (*Result, error) {
	if cfg.Strikes <= 0 {
		return nil, fmt.Errorf("fault: Strikes = %d, want > 0", cfg.Strikes)
	}
	return inj.RunRange(context.Background(), cfg, 0, cfg.Strikes)
}

// RunRange executes strikes [lo, hi) of a campaign. Because every strike
// owns an index-derived RNG stream and the tracking engine holds no
// cross-strike state (a strike's π sets, a register bitset and a short
// address list, are locals of its dataflow replay), tallies of any
// partition of [0, cfg.Strikes) merge to exactly the full campaign's
// tallies — the property that makes chunked checkpoints resumable without
// drift.
func (inj *Injector) RunRange(ctx context.Context, cfg Config, lo, hi int) (*Result, error) {
	if lo < 0 || hi < lo || hi > cfg.Strikes {
		return nil, fmt.Errorf("fault: strike range [%d, %d) outside [0, %d)", lo, hi, cfg.Strikes)
	}
	if inj.capacity == 0 {
		return nil, fmt.Errorf("fault: empty trace")
	}
	engine := cfg.engine()
	res := &Result{}
	for i := lo; i < hi; i++ {
		// Check for cancellation every 1024 strikes: cheap enough to keep
		// the loop tight, frequent enough that a SIGINT or a fail-fast
		// cancellation stops a campaign mid-flight instead of at its end.
		if i&1023 == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		s := strikeStream(cfg.Seed, i)
		o := inj.strike(&s, cfg, engine)
		res.Counts[o]++
		res.Strikes++
	}
	return res, nil
}

// StrikeOutcome classifies strike i of a campaign in isolation. It returns
// exactly what a full campaign records for index i — strikes share no
// state — which is what lets a resumed or replayed cell be byte-identical
// to the one an uninterrupted campaign runs.
func (inj *Injector) StrikeOutcome(cfg Config, i int) Outcome {
	s := strikeStream(cfg.Seed, i)
	return inj.strike(&s, cfg, cfg.engine())
}

// strike injects one uniformly sampled fault and classifies it.
func (inj *Injector) strike(s *rng.Stream, cfg Config, engine *pibit.Engine) Outcome {
	u := uint64(s.Int63n(int64(inj.capacity)))
	if u >= inj.totalOcc {
		return OutcomeIdle
	}
	// Locate the residency containing occupied bit-cycle u.
	idx := sort.Search(len(inj.cum), func(i int) bool { return inj.cum[i] > u })
	r := &inj.residencies[idx]
	base := uint64(0)
	if idx > 0 {
		base = inj.cum[idx-1]
	}
	off := u - base
	cycle := r.Enq + off/uint64(isa.EntryPayloadBits)
	bit := int(off % uint64(isa.EntryPayloadBits))
	field := isa.FieldOfBit(bit)

	// Strikes after the last read are never consumed.
	if !r.Issued || cycle >= r.Issue {
		return OutcomeNeverRead
	}

	ci := int(inj.pos[idx])
	cat := ace.CatACE // issued after the recorded log ended
	switch {
	case r.Inst.WrongPath:
		cat = ace.CatWrongPath
	case ci >= 0:
		cat = inj.dead.OfPos(ci)
	}
	truth := ace.BitACE(cat, field, r.Inst.Dest != isa.RegNone)

	switch cfg.Protection {
	case cache.ProtNone:
		if truth {
			return OutcomeSDC
		}
		return OutcomeBenignUnACE
	case cache.ProtECC:
		return OutcomeNeverRead // corrected in place; never observed
	}

	// Parity: the fault is detected when the entry is read at issue.
	if r.Inst.WrongPath {
		// Wrong-path instructions never reach the commit log; the commit
		// point discards them under any π level.
		if cfg.Level >= ace.TrackCommit {
			return OutcomeSuppressed
		}
		return OutcomeFalseDUE
	}
	if ci < 0 {
		// Issued after the recorded log ended; be conservative.
		if truth {
			return OutcomeTrueDUE
		}
		return OutcomeFalseDUE
	}
	switch engine.Process(inj.ix, ci, field) {
	case pibit.VerdictSignalled:
		if truth {
			return OutcomeTrueDUE
		}
		return OutcomeFalseDUE
	case pibit.VerdictSuppressed:
		if truth {
			return OutcomeMissedError
		}
		return OutcomeSuppressed
	default:
		return OutcomeLatent
	}
}

// StdErr returns the Monte-Carlo standard error of the fraction estimate
// for the given outcome (binomial: sqrt(p(1-p)/n)). Reported AVF estimates
// are typically quoted as Frac ± 2·StdErr.
func (r *Result) StdErr(o Outcome) float64 {
	if r.Strikes == 0 {
		return 0
	}
	p := r.Frac(o)
	return sqrt(p * (1 - p) / float64(r.Strikes))
}

// sqrt avoids importing math for one call site.
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = 0.5 * (z + x/z)
	}
	return z
}
