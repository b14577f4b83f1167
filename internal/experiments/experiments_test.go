package experiments

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"softerror/internal/core"
	"softerror/internal/spec"
	"softerror/internal/workload"
)

const testCommits = 5_000

func roster(t *testing.T, names ...string) []spec.Benchmark {
	t.Helper()
	var benches []spec.Benchmark
	for _, n := range names {
		b, ok := spec.ByName(n)
		if !ok {
			t.Fatalf("%s missing from roster", n)
		}
		benches = append(benches, b)
	}
	return benches
}

// params mirrors cmd/repro's defaults on a fresh suite, at a small size.
func params(benches []spec.Benchmark, ooo bool, workers int) Params {
	s := core.NewSuite(benches, testCommits)
	s.OutOfOrder = ooo
	s.Workers = workers
	return Params{
		Suite: s, Benches: benches, Commits: testCommits,
		PET: 512, RawFIT: 0.001, SimPoints: 2,
		Strikes: 500, Seed: 1, Jobs: workers,
	}
}

// TestRunAllWalksRosterOnce pins the "all" walk: its bytes and simulated
// cycles equal building each artefact on its own, at any worker count, and
// it decodes each benchmark once, where one walk per artefact decoded each
// four times. The walk's three later batches per benchmark and the
// outcomes run on the first benchmark find their stream in the store.
//
// Not parallel: it reads process-wide counters. Each case empties the
// store first, because a stream kept from an earlier run of the same
// workload would turn a decode into a hit.
func TestRunAllWalksRosterOnce(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ooo     bool
		benches []string
	}{
		{"inorder", false, []string{"mcf", "gzip-graphic", "ammp"}},
		{"ooo", true, []string{"twolf", "crafty", "art-110"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			benches := roster(t, tc.benches...)
			n := uint64(len(benches))

			st := workload.Streams()
			st.SetBudget(0)
			st.SetBudget(workload.DefaultStreamBytes)
			p := params(benches, tc.ooo, 1)
			d0, h0, c0 := st.Decodes(), st.Hits(), core.CyclesSimulated()
			var all bytes.Buffer
			if err := Run(ctx, &all, "all", p, false); err != nil {
				t.Fatal(err)
			}
			walked := core.CyclesSimulated() - c0
			if d := st.Decodes() - d0; d != n {
				t.Errorf("all decoded %d streams, want %d (one per benchmark)", d, n)
			}
			if h := st.Hits() - h0; h != 3*n+1 {
				t.Errorf("all found %d kept streams, want %d (three per benchmark plus outcomes)", h, 3*n+1)
			}
			if sims := p.Suite.Simulations(); sims != 5*n {
				t.Errorf("all ran %d policy simulations, want %d", sims, 5*n)
			}

			var j2 bytes.Buffer
			if err := Run(ctx, &j2, "all", params(benches, tc.ooo, 2), false); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(j2.Bytes(), all.Bytes()) {
				t.Error("all at 2 workers differs from all at 1")
			}

			p = params(benches, tc.ooo, 1)
			c0 = core.CyclesSimulated()
			var each bytes.Buffer
			for _, name := range AllOrder {
				tbl, err := Build(ctx, name, p)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := Emit(&each, tbl, false); err != nil {
					t.Fatal(err)
				}
			}
			if c := core.CyclesSimulated() - c0; c != walked {
				t.Errorf("artefacts built one by one simulated %d cycles, the walk %d", c, walked)
			}
			if !bytes.Equal(each.Bytes(), all.Bytes()) {
				t.Errorf("all differs from its artefacts built one by one:\n%s\nwant:\n%s", all.Bytes(), each.Bytes())
			}
		})
	}
}

// TestBuildHonoursSuiteContext checks that the experiments which used to
// run outside the suite stop when the suite's context is cancelled.
func TestBuildHonoursSuiteContext(t *testing.T) {
	for _, name := range []string{"protection", "simpoints"} {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			p := params(roster(t, "mcf"), false, 1)
			p.Suite.Ctx = ctx
			tbl, err := Build(context.Background(), name, p)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Build(%s) under a cancelled suite = %v, %v; want context.Canceled", name, tbl, err)
			}
		})
	}
}
