//go:build !race

// Race instrumentation allocates on its own; the allocation budgets here
// only hold in plain builds.

package spec

import "testing"

// TestByNameBuildsNothing pins that a lookup reads the roster built once
// at start-up: every served request resolves its benchmarks through
// ByName, which used to rebuild and validate all 26 profiles per call.
func TestByNameBuildsNothing(t *testing.T) {
	if avg := testing.AllocsPerRun(10, func() {
		if _, ok := ByName("wupwise"); !ok {
			t.Fatal("wupwise not in roster")
		}
	}); avg != 0 {
		t.Fatalf("ByName allocates %.1f times per call, want 0", avg)
	}
}
