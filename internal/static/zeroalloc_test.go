//go:build !race

// Race instrumentation allocates on its own; the allocation budgets here
// only hold in plain builds.

package static

import (
	"testing"

	"softerror/internal/pipeline"
	"softerror/internal/workload"
)

// TestWarmQueryAllocFree pins the analyzer's serving property: once a
// (program, cut) view exists, Query is pure arithmetic over prebuilt
// prefix arrays — the path /v1/bound hits on every repeat configuration
// must not allocate.
func TestWarmQueryAllocFree(t *testing.T) {
	sh, err := workload.NewShared(workload.Default())
	if err != nil {
		t.Fatal(err)
	}
	a := NewAnalyzer()
	a.Load(sh.BodyPrefix(2000+BodySlack), 2000)

	base := pipeline.DefaultConfig()
	ooo := base
	ooo.OutOfOrder = true
	var sink Bounds
	run := func() {
		sink = a.Query(base)
		sink = a.Query(ooo)
	}
	run() // warm: builds both cut views

	if avg := testing.AllocsPerRun(10, run); avg > 0 {
		t.Fatalf("warm Query allocates %.1f times, want 0", avg)
	}
	_ = sink
}

// TestEstimateAllocFree pins pricing's per-cell cost: Estimate is counter
// arithmetic on a loaded analyzer, cold or warm.
func TestEstimateAllocFree(t *testing.T) {
	sh, err := workload.NewShared(workload.Default())
	if err != nil {
		t.Fatal(err)
	}
	a := NewAnalyzer()
	a.Load(sh.BodyPrefix(2000+BodySlack), 2000)

	base := pipeline.DefaultConfig()
	ooo := base
	ooo.OutOfOrder = true
	var sink uint64
	if avg := testing.AllocsPerRun(10, func() {
		sink += a.Estimate(base) + a.Estimate(ooo)
	}); avg > 0 {
		t.Fatalf("Estimate allocates %.1f times, want 0", avg)
	}
	_ = sink
}
