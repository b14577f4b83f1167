// Package par is the deterministic parallel execution engine behind the
// evaluation drivers: a bounded worker pool that fans a function out over an
// index space and delivers results into pre-sized slices, so output order is
// a property of the index space, never of goroutine scheduling.
//
// Every bulk campaign in this repository — suite fan-outs, design-space
// grids, fault-injection campaigns — is a set of mutually independent,
// individually deterministic simulations. Running them on N workers must
// therefore produce byte-identical artefacts to running them on one; the
// engine guarantees that by construction: workers claim indices from an
// atomic counter, write results only to their own index, and all ordering
// decisions (aggregation, CSV emission) happen in index order afterwards.
//
// The engine is also the campaign's containment boundary: worker panics are
// recovered into typed TaskErrors instead of crashing the process, and
// failed cells can be skipped (Collect policy) so that a single poisoned
// cell costs one cell, not the whole run. Each index runs once: a
// deterministic cell fails the same way every time. See Run and Options.
package par

import (
	"context"
	"runtime"
	"sync/atomic"
)

// defaultWorkers overrides the GOMAXPROCS fallback when positive; commands
// set it from their -j flag.
var defaultWorkers atomic.Int64

// SetDefault sets the package-wide default worker count used when a caller
// passes Workers <= 0. n <= 0 restores the GOMAXPROCS default. Commands call
// this once from flag parsing; it is safe for concurrent use.
func SetDefault(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Workers resolves a requested worker count: n > 0 is honoured as-is;
// anything else falls back to SetDefault's value, and failing that to
// runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	if d := defaultWorkers.Load(); d > 0 {
		return int(d)
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(ctx, i) for every i in [0, n) on up to workers goroutines
// (resolved through Workers). The first failure cancels the context and
// stops unclaimed indices; in-flight calls run to completion. ForEach
// returns the first failure in claim order as a *TaskError (a recovered
// worker panic included), or ctx's error if it was cancelled externally.
// It is Run with the fail-fast policy.
func ForEach(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	return Run(ctx, n, Options{Workers: workers}, fn)
}

// Map runs fn over [0, n) on up to workers goroutines and returns the
// results in index order. On error the partial results are discarded and the
// first error is returned.
func Map[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	out := make([]T, n)
	err := ForEach(ctx, n, workers, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
