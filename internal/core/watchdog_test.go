package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"softerror/internal/par"
	"softerror/internal/pipeline"
	"softerror/internal/spec"
	"softerror/internal/workload"
)

// TestForwardProgressWatchdogFailsStuckCell pins the hang detector that
// campaigns rely on: a branch that takes a million cycles to resolve stalls
// commit for longer than the pipeline's forward-progress bound, and the
// simulation panics instead of spinning. Under par.Run with Collect each
// stuck cell becomes a TaskError carrying the panic stack and the
// watchdog's message, for the lane engine of both core families and for
// the reference interpreter.
func TestForwardProgressWatchdogFailsStuckCell(t *testing.T) {
	b, ok := spec.ByName("mcf")
	if !ok {
		t.Fatal("mcf not in roster")
	}
	stuck := func(ooo bool) pipeline.Config {
		cfg := pipeline.DefaultConfig()
		cfg.OutOfOrder = ooo
		cfg.BranchResolveLatency = 1_000_000
		return cfg
	}
	const commits = 20_000
	cells := []func(ctx context.Context) error{
		func(ctx context.Context) error {
			_, err := RunContext(ctx, Config{Workload: b.Params, Pipeline: stuck(false), Commits: commits})
			return err
		},
		func(ctx context.Context) error {
			_, err := RunContext(ctx, Config{Workload: b.Params, Pipeline: stuck(true), Commits: commits})
			return err
		},
		func(context.Context) error {
			gen, err := workload.New(b.Params)
			if err != nil {
				return err
			}
			p, err := pipeline.New(stuck(false), gen, workload.WarmedDefault())
			if err != nil {
				return err
			}
			p.Run(commits, false)
			return nil
		},
	}
	err := par.Run(context.Background(), len(cells), par.Options{Policy: par.Collect},
		func(ctx context.Context, i int) error { return cells[i](ctx) })
	var es par.Errors
	if !errors.As(err, &es) || len(es) != len(cells) {
		t.Fatalf("err = %v, want every stuck cell to fail", err)
	}
	for _, te := range es {
		if !strings.Contains(string(te.Stack), "softerror/internal/pipeline.") {
			t.Errorf("cell %d: TaskError stack does not reach the pipeline's panic site:\n%s", te.Index, te.Stack)
		}
		if !strings.Contains(te.Error(), "no commit for 500000 cycles") {
			t.Errorf("cell %d: %v lacks the watchdog's message", te.Index, te)
		}
	}
}
