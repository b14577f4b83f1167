// Package core is the library façade: it wires a synthetic workload, the
// cache hierarchy, the pipeline, the ACE analysis and the fault-injection
// machinery into single-call experiments, and implements the paper's
// evaluation drivers (Table 1, Figures 1-4, the §4.1 occupancy breakdown,
// and the fetch-throttling ablation).
package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"softerror/internal/ace"
	"softerror/internal/cache"
	"softerror/internal/pipeline"
	"softerror/internal/workload"
)

// Policy selects the exposure-reduction configuration under study — the
// rows of the paper's Table 1, plus the fetch-throttling action studied in
// §3.1.
type Policy uint8

const (
	// PolicyBaseline runs without exposure reduction.
	PolicyBaseline Policy = iota
	// PolicySquashL1 squashes the IQ on loads that miss the L1 cache.
	PolicySquashL1
	// PolicySquashL0 squashes the IQ on loads that miss the L0 cache.
	PolicySquashL0
	// PolicyThrottleL1 stalls fetch (no squash) on L1 misses.
	PolicyThrottleL1
	// PolicyThrottleL0 stalls fetch (no squash) on L0 misses.
	PolicyThrottleL0

	// NumPolicies is the number of policies.
	NumPolicies = iota
)

var policyNames = [NumPolicies]string{
	"no squashing", "squash on L1 load misses", "squash on L0 load misses",
	"throttle on L1 load misses", "throttle on L0 load misses",
}

// String names the policy as in Table 1.
func (p Policy) String() string {
	if int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

var policyFlags = [NumPolicies]string{
	"baseline", "squash-l1", "squash-l0", "throttle-l1", "throttle-l0",
}

// Flag returns the policy's canonical flag/API vocabulary — the inverse of
// ParsePolicy, so ParsePolicy(p.Flag()) == p for every valid policy.
func (p Policy) Flag() string {
	if int(p) < len(policyFlags) {
		return policyFlags[p]
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// ParsePolicy resolves the flag/API vocabulary shared by cmd/sweep,
// cmd/sersim and the evaluation service to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "baseline", "none":
		return PolicyBaseline, nil
	case "squash-l1":
		return PolicySquashL1, nil
	case "squash-l0":
		return PolicySquashL0, nil
	case "throttle-l1":
		return PolicyThrottleL1, nil
	case "throttle-l0":
		return PolicyThrottleL0, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (known: baseline, squash-l1, squash-l0, throttle-l1, throttle-l0)", s)
	}
}

// Apply configures a pipeline for the policy.
func (p Policy) Apply(cfg *pipeline.Config) {
	cfg.SquashTrigger = pipeline.TriggerNone
	cfg.ThrottleTrigger = pipeline.TriggerNone
	switch p {
	case PolicySquashL1:
		cfg.SquashTrigger = pipeline.TriggerL1Miss
	case PolicySquashL0:
		cfg.SquashTrigger = pipeline.TriggerL0Miss
	case PolicyThrottleL1:
		cfg.ThrottleTrigger = pipeline.TriggerL1Miss
	case PolicyThrottleL0:
		cfg.ThrottleTrigger = pipeline.TriggerL0Miss
	}
}

// Config parameterises one simulation.
type Config struct {
	// Workload is the synthetic program profile.
	Workload workload.Params
	// Pipeline is the core configuration; zero value means
	// pipeline.DefaultConfig().
	Pipeline pipeline.Config
	// Commits is how many instructions to commit (default 100,000 —
	// one thousandth of the paper's SimPoint length, enough for the AVF
	// integrals to stabilise on a laptop-scale run). Caches are always
	// pre-warmed: the paper measures slices after skipping billions of
	// instructions.
	Commits uint64
	// KeepTrace retains the full pipeline trace (residencies and commit
	// log) on the Result, as needed for trace-level fault-injection
	// campaigns. It is one more sink on the run: the AVF reports come from
	// the same streaming analysis either way.
	KeepTrace bool
	// RegFile additionally computes the architectural register files'
	// vulnerability report (the paper's closing "other structures"
	// extension).
	RegFile bool
	// FrontEnd and StoreBuffer additionally compute the fetch buffer's and
	// store buffer's vulnerability reports (§4.2's front-end structures and
	// the conclusion's "other structures").
	FrontEnd    bool
	StoreBuffer bool
	// Sink, when non-nil, receives the run's event stream alongside the
	// analysis (and the trace recorder, under KeepTrace) — e.g. a
	// fault.StreamRecorder that retains just the intervals an injection
	// campaign samples.
	Sink pipeline.Sink
}

// DefaultCommits is the default per-run commit count.
const DefaultCommits = 100_000

// MaxServedCommits is the most commits per run that seratd accepts in one
// request (evals, bounds, sweeps and fleet leases). Each run reserves its
// decoded stream for all its commits up front, at about 50 B a commit, so
// the cap holds one reservation near 210 MB; a count off the wire must not
// reach that reservation unchecked, since the runtime's out-of-memory
// throw cannot be recovered. The CLIs' -commits flags are not capped.
const MaxServedCommits = 1 << 22

// simCycles accumulates every cycle simulated by this process, across all
// workers and drivers; the evaluation service reads it to report a
// simulated-Mcycles/s throughput gauge.
var simCycles atomic.Uint64

// CyclesSimulated returns the total number of cycles simulated by this
// process so far. Safe for concurrent use.
func CyclesSimulated() uint64 { return simCycles.Load() }

// Result is the distilled outcome of one simulation.
type Result struct {
	// Name echoes the workload name.
	Name string
	// IPC is committed instructions per cycle.
	IPC float64
	// Report is the integrated ACE/AVF analysis.
	Report *ace.Report
	// Cycles, Commits, Squashes, Refetches and ThrottleEvents summarise
	// the run.
	Cycles         uint64
	Commits        uint64
	Squashes       uint64
	Refetches      uint64
	ThrottleEvents uint64
	// LoadMissRateL0 and LoadMissRateL1 are the realised load miss rates
	// at the squash-trigger levels.
	LoadMissRateL0 float64
	LoadMissRateL1 float64
	// Trace is retained only when Config.KeepTrace was set.
	Trace *pipeline.Trace
	// RegFile is the register-file vulnerability report, present only
	// when Config.RegFile was set.
	RegFile *ace.RegFileReport
	// FrontEndReport and StoreBufferReport are present only when
	// Config.FrontEnd / Config.StoreBuffer were set.
	FrontEndReport    *ace.Report
	StoreBufferReport *ace.SBReport
	// ROBReport, LSQReport and TAGEReport are the out-of-order family's
	// structure analyses, present only when Pipeline.OutOfOrder was set.
	ROBReport  *ace.Report
	LSQReport  *ace.LSQReport
	TAGEReport *ace.TAGEReport
}

// newResult distils a run's stats into a Result; the caller attaches the
// reports.
func newResult(name string, st pipeline.Stats) *Result {
	return &Result{
		Name:           name,
		IPC:            st.IPC(),
		Cycles:         st.Cycles,
		Commits:        st.Commits,
		Squashes:       st.Squashes,
		Refetches:      st.Refetches,
		ThrottleEvents: st.ThrottleEvents,
		LoadMissRateL0: st.LoadMissRate(cache.LevelL0),
		LoadMissRateL1: st.LoadMissRate(cache.LevelL1),
	}
}

// tageReport closes the TAGE exposure integral carried by an out-of-order
// run's stats; nil for the in-order family.
func tageReport(cfg pipeline.Config, st pipeline.Stats) *ace.TAGEReport {
	if !cfg.OutOfOrder {
		return nil
	}
	n := cfg.Normalized()
	return &ace.TAGEReport{
		Cycles:       st.Cycles,
		Tables:       n.TAGETables,
		TableEntries: 1 << n.TAGETableBits,
		ReadCycles:   st.TAGEReadCycles,
	}
}

// Run executes one simulation end to end: build the generator, warm the
// hierarchy, run the pipeline, and integrate the AVFs.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cooperative cancellation threaded through the
// pipeline's cycle loop, so a SIGINT or a fail-fast cancellation aborts
// within one simulation rather than one campaign. The run is a one-lane batch on
// RunBatchArena's lane engine, whatever the workload's branch predictor.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	a := defaultArenas.Get()
	defer defaultArenas.Put(a)
	res, err := runLanes(ctx, a, cfg.Workload, cfg.Commits, []Config{cfg})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}
