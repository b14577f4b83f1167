//go:build !race

// Race instrumentation allocates on its own; the allocation budgets here
// only hold in plain builds.

package static

import (
	"math"
	"runtime"
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

// TestAnalyzeReusesPooledAnalyzer pins the served bound's cost: once an
// earlier Analyze has returned its analyzer to the pool, a repeat call
// rebuilds the prefix arrays and the deadness kernel's scratch in place,
// so it allocates less than one prefix array over the body (the cut view
// keeps ten of them). Only the classification it returns is new. The
// cheapest of a few calls is taken, since a garbage collection may empty
// the pool between two of them.
func TestAnalyzeReusesPooledAnalyzer(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const commits = 20000
	p := workload.Default()
	cfg := pipeline.DefaultConfig()
	if _, err := Analyze(p, commits, cfg); err != nil { // decode and warm
		t.Fatal(err)
	}
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Analyze(p, commits, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n < least {
			least = n
		}
	}
	t.Logf("a warm Analyze at %d commits allocates %d bytes", commits, least)
	if limit := uint64(8 * (commits + BodySlack + 1)); least >= limit {
		t.Fatalf("a warm Analyze allocates %d bytes, want < %d (one prefix array)", least, limit)
	}
}
