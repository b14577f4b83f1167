package static

import (
	"testing"

	"softerror/internal/pipeline"
	"softerror/internal/workload"
)

// TestEstimateBuildsNoView pins what pricing costs: Estimate on a freshly
// loaded analyzer answers from Load's counters, builds no deadness view,
// and agrees with the EstCycles a full Query reports.
func TestEstimateBuildsNoView(t *testing.T) {
	sh, err := workload.NewShared(workload.Default())
	if err != nil {
		t.Fatal(err)
	}
	a := NewAnalyzer()
	a.Load(sh.BodyPrefix(2000+BodySlack), 2000)
	base := pipeline.DefaultConfig()
	ooo := base
	ooo.OutOfOrder = true
	cfgs := []pipeline.Config{base, ooo}
	est := make([]uint64, len(cfgs))
	for i, cfg := range cfgs {
		est[i] = a.Estimate(cfg)
	}
	if n := len(a.views); n != 0 {
		t.Fatalf("Estimate built %d deadness views, want none", n)
	}
	for i, cfg := range cfgs {
		if est[i] == 0 {
			t.Errorf("Estimate of a loaded program is 0 (ooo=%v)", cfg.OutOfOrder)
		}
		if got := a.Query(cfg).EstCycles; got != est[i] {
			t.Errorf("Query EstCycles %d, Estimate %d (ooo=%v)", got, est[i], cfg.OutOfOrder)
		}
	}
}
