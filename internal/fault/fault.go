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
	"math"
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
// NewFrontEndInjector). It keeps each residency as a 24-byte record and
// the commit log as a pibit.Index, whichever constructor built it: the
// trace constructors and StreamRecorder.Injector differ only in where
// the records come from. It is read-only once built, so campaign workers
// share it.
type Injector struct {
	res  residencies // keys resolved to log positions
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
// analysis, so that dead.OfPos(i) classifies log[i]. The injector copies
// what strikes read, so res and log may change or be dropped afterwards.
func NewStructureInjector(res []pipeline.Residency, cycles uint64, entries int, log []isa.Inst, dead *ace.Deadness) *Injector {
	l := residencies{recs: make([]residency, 0, len(res))}
	for i, p := range pipeline.LogPositions(res, log) {
		l.add(&res[i])
		l.recs[i].key = noPos
		if p >= 0 {
			l.recs[i].key = uint64(p)
		}
	}
	cum, total := l.cumulate(nil)
	return newInjector(l, cum, total, cycles, entries, pibit.NewIndex(log), dead)
}

// newInjector assembles an injector over resolved residency records and
// their cumulative occupancies.
func newInjector(res residencies, cum []uint64, totalOcc, cycles uint64, entries int, ix *pibit.Index, dead *ace.Deadness) *Injector {
	return &Injector{
		res:      res,
		ix:       ix,
		dead:     dead,
		cum:      cum,
		totalOcc: totalOcc,
		capacity: cycles * uint64(entries) * uint64(isa.EntryPayloadBits),
	}
}

// residency is one structure residency as a strike reads it, in 24
// bytes. A residency whose cycles do not all fit 32 bits sets resWide
// and keeps them whole in its list's wide map, never wrapped.
type residency struct {
	// key is the instruction's Seq until the residency is resolved, then
	// its commit-log position, or noPos when it never reached the log
	// (wrong path, or issued after the recorded log ended).
	key               uint64
	enq, issue, evict uint32
	flags             resFlags
}

// resFlags are the residency bits a strike reads.
type resFlags uint8

const (
	resIssued    resFlags = 1 << iota // read by the issue stage
	resWrongPath                      // fetched past a mispredicted branch
	resDestNamed                      // the instruction names a destination
	resWide                           // cycles are in the list's wide map
)

// noPos is a resolved key for a residency that has no log position.
const noPos = ^uint64(0)

// span64 holds a residency's cycles at full width.
type span64 struct{ enq, issue, evict uint64 }

// residencies is a list of residency records, exact at any cycle count.
type residencies struct {
	recs []residency
	wide map[int]span64 // by record index; only records with a cycle past 32 bits
}

// add appends r's record, keyed by its Seq.
func (l *residencies) add(r *pipeline.Residency) {
	rec := residency{key: r.Inst.Seq}
	if r.Issued {
		rec.flags |= resIssued
	}
	if r.Inst.WrongPath {
		rec.flags |= resWrongPath
	}
	if r.Inst.Dest != isa.RegNone {
		rec.flags |= resDestNamed
	}
	if max(r.Enq, r.Issue, r.Evict) <= math.MaxUint32 {
		rec.enq, rec.issue, rec.evict = uint32(r.Enq), uint32(r.Issue), uint32(r.Evict)
	} else {
		rec.flags |= resWide
		if l.wide == nil {
			l.wide = make(map[int]span64)
		}
		l.wide[len(l.recs)] = span64{r.Enq, r.Issue, r.Evict}
	}
	l.recs = append(l.recs, rec)
}

func (l *residencies) reset() {
	l.recs = l.recs[:0]
	clear(l.wide)
}

// span returns record i's enqueue, issue and eviction cycles.
func (l *residencies) span(i int) span64 {
	r := &l.recs[i]
	if r.flags&resWide != 0 {
		return l.wide[i]
	}
	return span64{uint64(r.enq), uint64(r.issue), uint64(r.evict)}
}

// cumulate appends each record's cumulative occupied bit-cycles to buf
// and returns it with the total. A residency occupies [enq, evict).
func (l *residencies) cumulate(buf []uint64) (cum []uint64, total uint64) {
	cum = buf[:0]
	for i := range l.recs {
		if s := l.span(i); s.evict > s.enq {
			total += (s.evict - s.enq) * uint64(isa.EntryPayloadBits)
		}
		cum = append(cum, total)
	}
	return cum, total
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
	r := &inj.res.recs[idx]
	sp := inj.res.span(idx)
	base := uint64(0)
	if idx > 0 {
		base = inj.cum[idx-1]
	}
	off := u - base
	cycle := sp.enq + off/uint64(isa.EntryPayloadBits)
	bit := int(off % uint64(isa.EntryPayloadBits))
	field := isa.FieldOfBit(bit)

	// Strikes after the last read are never consumed.
	if r.flags&resIssued == 0 || cycle >= sp.issue {
		return OutcomeNeverRead
	}

	wrongPath, logged := r.flags&resWrongPath != 0, r.key != noPos
	cat := ace.CatACE // issued after the recorded log ended
	switch {
	case wrongPath:
		cat = ace.CatWrongPath
	case logged:
		cat = inj.dead.OfPos(int(r.key))
	}
	truth := ace.BitACE(cat, field, r.flags&resDestNamed != 0)

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
	if wrongPath {
		// Wrong-path instructions never reach the commit log; the commit
		// point discards them under any π level.
		if cfg.Level >= ace.TrackCommit {
			return OutcomeSuppressed
		}
		return OutcomeFalseDUE
	}
	if !logged {
		// Issued after the recorded log ended; be conservative.
		if truth {
			return OutcomeTrueDUE
		}
		return OutcomeFalseDUE
	}
	switch engine.Process(inj.ix, int(r.key), field) {
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
