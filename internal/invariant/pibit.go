package invariant

import (
	"fmt"

	"softerror/internal/ace"
	"softerror/internal/isa"
	"softerror/internal/pibit"
	"softerror/internal/rng"
)

// checkPiBitSafety pins the safety side of the paper's false-DUE tracking:
// no π-bit deployment level, PET capacity or replay window — however small —
// may suppress a detected error whose ground truth is outcome-changing.
// The deadness analysis over the full committed stream is the oracle
// (ace.BitACE says which (category, field) strikes change the outcome);
// every tracking configuration is only ever allowed to turn a true error
// into Signalled or Latent, never Suppressed. Aggressiveness is not under
// test here — suppressing few false errors is a quality loss, suppressing
// one true error is a broken machine.
func checkPiBitSafety(seed uint64, opt Options) error {
	opt = opt.withDefaults()
	s := rng.New(seed, 0x91B5)
	params := RandomWorkload(s)
	cfg := RandomPipelineConfig(s)
	tr, err := runTrace(cfg, params, opt.Commits)
	if err != nil {
		return err
	}
	if len(tr.CommitLog) == 0 {
		return fmt.Errorf("empty commit log")
	}
	dead := ace.AnalyzeDeadness(tr.CommitLog)
	ix := pibit.NewIndex(tr.CommitLog)

	levels := []ace.TrackLevel{
		ace.TrackNever, ace.TrackCommit, ace.TrackAntiPi, ace.TrackPET,
		ace.TrackRegFile, ace.TrackStoreBuffer, ace.TrackMemory,
	}
	const trials = 400
	checked := 0
	for t := 0; t < trials; t++ {
		i := s.Intn(len(tr.CommitLog))
		in := &tr.CommitLog[i]
		field := isa.Field(s.Intn(isa.NumFields))
		cat := dead.OfPos(i)
		if !ace.BitACE(cat, field, in.HasDest()) {
			continue // un-ACE ground truth: any verdict is acceptable
		}
		checked++
		eng := &pibit.Engine{
			Level:      levels[s.Intn(len(levels))],
			PETEntries: 1 << (0 + s.Intn(11)), // 1..1024: tiny PETs must fail safe
			Window:     1 + s.Intn(2*int(opt.Commits)),
		}
		if v := eng.Process(ix, i, field); v == pibit.VerdictSuppressed {
			return fmt.Errorf("outcome-changing error suppressed: idx=%d seq=%d field=%v cat=%v level=%v pet=%d window=%d",
				i, in.Seq, field, cat, eng.Level, eng.PETEntries, eng.Window)
		}
	}
	if checked == 0 {
		return fmt.Errorf("no outcome-changing strike drawn in %d trials (commits=%d)", trials, opt.Commits)
	}
	return nil
}
