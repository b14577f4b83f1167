package core

import (
	"context"
	"fmt"
	"math"

	"softerror/internal/par"
	"softerror/internal/pipeline"
	"softerror/internal/spec"
)

// SimPointSummary aggregates several SimPoint slices of one benchmark. The
// paper obtained multiple SimPoints per benchmark but presented only the
// first; running several quantifies how sensitive the AVFs are to the
// slice (program phase) chosen.
type SimPointSummary struct {
	Bench  string
	Policy Policy
	N      int

	MeanIPC, StdIPC       float64
	MeanSDCAVF, StdSDCAVF float64
	MeanDUEAVF, StdDUEAVF float64
}

// RunSimPoints simulates n SimPoint slices of one benchmark under a policy,
// fanned out over at most workers goroutines (<= 0 means the par default)
// and cancelled with ctx. Each slice reuses the benchmark's profile with a
// derived seed, standing in for a different region of the program's
// execution, and runs for commits instructions.
func RunSimPoints(ctx context.Context, b spec.Benchmark, pol Policy, n int, commits uint64, workers int) (SimPointSummary, error) {
	if n < 1 {
		return SimPointSummary{}, fmt.Errorf("core: need at least one SimPoint, got %d", n)
	}
	pcfg := pipeline.DefaultConfig()
	pol.Apply(&pcfg)

	sum := SimPointSummary{Bench: b.Name, Policy: pol, N: n}
	// Slices are independent runs with derived seeds; fan them out and
	// aggregate in slice order so the summary stays bit-identical at any
	// worker count.
	type slice struct{ ipc, sdc, due float64 }
	slices, err := par.Map(ctx, n, workers,
		func(ctx context.Context, k int) (slice, error) {
			params := b.Params
			// Golden-ratio seed stepping keeps slices decorrelated while the
			// first SimPoint reproduces the headline numbers exactly.
			params.Seed = b.Params.Seed + uint64(k)*0x9e3779b97f4a7c15
			r, err := RunContext(ctx, Config{Workload: params, Pipeline: pcfg, Commits: commits})
			if err != nil {
				return slice{}, fmt.Errorf("core: %s simpoint %d: %w", b.Name, k, err)
			}
			return slice{ipc: r.IPC, sdc: r.Report.SDCAVF(), due: r.Report.DUEAVF()}, nil
		})
	if err != nil {
		return SimPointSummary{}, err
	}
	var ipc, sdc, due []float64
	for _, sl := range slices {
		ipc = append(ipc, sl.ipc)
		sdc = append(sdc, sl.sdc)
		due = append(due, sl.due)
	}
	sum.MeanIPC, sum.StdIPC = meanStd(ipc)
	sum.MeanSDCAVF, sum.StdSDCAVF = meanStd(sdc)
	sum.MeanDUEAVF, sum.StdDUEAVF = meanStd(due)
	return sum, nil
}

// SimPoints runs n SimPoint slices of every roster benchmark under a
// policy, in roster order, with the suite's context and worker bound. Runs
// are not memoised.
func (s *Suite) SimPoints(pol Policy, n int) ([]SimPointSummary, error) {
	sums := make([]SimPointSummary, 0, len(s.Benches))
	for _, b := range s.Benches {
		sum, err := RunSimPoints(s.ctx(), b, pol, n, s.Commits, s.Workers)
		if err != nil {
			return nil, err
		}
		sums = append(sums, sum)
	}
	return sums, nil
}

func meanStd(xs []float64) (mean, std float64) {
	n := float64(len(xs))
	if n == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= n
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(ss / (n - 1))
}
