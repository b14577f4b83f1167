//go:build !race

// The test below simulates the whole roster at 100k commits on both core
// families. It checks a sizing estimate, not concurrency, and the race
// detector would slow it about tenfold, so it runs in plain builds only.

package core

import (
	"context"
	"testing"

	"softerror/internal/ace"
	"softerror/internal/pipeline"
	"softerror/internal/spec"
	"softerror/internal/workload"
)

// TestWrongReserveTracksDraws pins the wrong-path memo reservation against
// what runs draw: for every benchmark of the default roster at 100k
// commits, on each core family, a batch of Table 1's three policies must
// draw within a factor of two of wrongReserve's estimate. An estimate far
// above the draws holds memory no one reads; one far below regrows the
// memo by repeated append copies. Run with -v to see each estimate
// beside its draws.
func TestWrongReserveTracksDraws(t *testing.T) {
	const commits = 100000
	for _, ooo := range []bool{false, true} {
		family := "inorder"
		if ooo {
			family = "ooo"
		}
		t.Run(family, func(t *testing.T) {
			t.Parallel()
			var lanes []Config
			for _, trig := range []pipeline.Trigger{pipeline.TriggerNone, pipeline.TriggerL1Miss, pipeline.TriggerL0Miss} {
				cfg := pipeline.DefaultConfig()
				cfg.OutOfOrder = ooo
				cfg.SquashTrigger = trig
				lanes = append(lanes, Config{Pipeline: cfg})
			}
			for _, b := range spec.All() {
				sh, err := workload.NewShared(b.Params)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := runGroup(context.Background(), NewArena(), b.Name, commits, sh, ace.NewBatchGroup(sh), lanes); err != nil {
					t.Fatal(err)
				}
				draws := sh.WrongDraws()
				est := wrongReserve(b.Params, commits, !ooo)
				t.Logf("%-17s estimate %6d draws %6d (%.2f)", b.Name, est, draws, float64(est)/float64(draws))
				if est > 2*draws || draws > 2*est {
					t.Errorf("%s: estimate %d is not within 2x of %d draws", b.Name, est, draws)
				}
			}
		})
	}
}
