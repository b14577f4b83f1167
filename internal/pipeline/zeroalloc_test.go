//go:build !race

// Race instrumentation allocates on its own; the allocation budgets here
// only hold in plain builds.

package pipeline

import (
	"context"
	"testing"

	"softerror/internal/cache"
	"softerror/internal/workload"
)

// TestBatchSteadyStateAllocFree pins the tentpole property of the batch
// engine: with a warm BatchArena, a fully decoded shared stream and
// re-viewed warm hierarchies, a complete multi-lane run allocates only its
// []Stats result — the cycle loop itself (lane state, ring buffers, squash
// and throttle queues, refetch backlog) runs out of the arena.
func TestBatchSteadyStateAllocFree(t *testing.T) {
	const commits = 5000
	base := DefaultConfig()
	narrow := base
	narrow.IQSize = 16
	narrow.OutOfOrder = true
	cfgs := []Config{base, narrow}

	sh, err := workload.NewShared(workload.Default())
	if err != nil {
		t.Fatal(err)
	}
	mems := make([]*cache.Hierarchy, len(cfgs))
	sinks := make([]BatchSink, len(cfgs)) // nil sinks: the loop is under test, not the collectors
	var a BatchArena
	ctx := context.Background()

	run := func() {
		for i := range mems {
			mems[i] = workload.WarmedInto(mems[i]) // alloc-free re-view once its pools have grown
		}
		if _, err := RunBatchStreamArena(ctx, commits, sh, cfgs, mems, sinks, &a); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: decode the stream, grow the views' pools and the arena

	// One allocation per run is structural: the returned []Stats. Anything
	// beyond it is churn leaking back into the steady-state loop.
	if avg := testing.AllocsPerRun(10, run); avg > 1 {
		t.Fatalf("warm batch run allocates %.1f times, want <= 1 (the []Stats result)", avg)
	}
}
