// Package softerror reproduces "Techniques to Reduce the Soft Error Rate
// of a High-Performance Microprocessor" (Weaver, Emer, Mukherjee,
// Reinhardt; ISCA 2004) as a self-contained Go library: an Itanium®2-like
// in-order pipeline model with a 64-entry instruction queue, ACE-based
// AVF analysis, the squash-on-miss exposure-reduction techniques with the
// MITF metric, and the full π-bit / anti-π / PET-buffer false-DUE tracking
// stack, validated by single-bit fault injection.
//
// This package is the stable façade: it aliases the primary entry points
// of the implementation packages so that typical studies need only this
// import. The full surface lives in the internal packages:
//
//	internal/workload  synthetic SPEC CPU2000 stand-ins
//	internal/spec      the Table-2 benchmark roster
//	internal/cache     the L0/L1/L2 data-cache hierarchy
//	internal/pipeline  the in-order core and instruction queue
//	internal/ace       deadness discovery and AVF integration
//	internal/pibit     π bit, anti-π, PET buffer, tracking engine
//	internal/fault     single-bit fault-injection campaigns
//	internal/serate    FIT/MTTF/MITF arithmetic
//	internal/chip      chip-level rate budgets and protection planning
//	internal/scrub     multi-bit strike models: scrubbing and interleaving
//	internal/sweep     design-space grids to CSV
//	internal/config    JSON experiment configs
//	internal/core      experiment drivers (Table 1, Figures 1-4)
//
// Quick start:
//
//	res, err := softerror.Run(softerror.Config{
//		Workload: softerror.DefaultWorkload(),
//		Commits:  100_000,
//	})
//	fmt.Println(res.IPC, res.Report.SDCAVF(), res.Report.DUEAVF())
package softerror

import (
	"softerror/internal/core"
	"softerror/internal/spec"
	"softerror/internal/workload"
)

// Config parameterises one simulation; see internal/core.Config.
type Config = core.Config

// Result is a distilled simulation outcome; see internal/core.Result.
type Result = core.Result

// Suite evaluates a benchmark roster under multiple exposure policies.
type Suite = core.Suite

// Policy selects the exposure-reduction configuration (Table 1's rows).
type Policy = core.Policy

// Exposure-reduction policies.
const (
	PolicyBaseline   = core.PolicyBaseline
	PolicySquashL1   = core.PolicySquashL1
	PolicySquashL0   = core.PolicySquashL0
	PolicyThrottleL1 = core.PolicyThrottleL1
	PolicyThrottleL0 = core.PolicyThrottleL0
)

// Benchmark is one entry of the Table-2 roster.
type Benchmark = spec.Benchmark

// WorkloadParams configures a synthetic workload.
type WorkloadParams = workload.Params

// Run executes one simulation end to end.
func Run(cfg Config) (*Result, error) { return core.Run(cfg) }

// NewSuite builds an experiment suite over a roster (nil = all 26).
func NewSuite(benches []Benchmark, commits uint64) *Suite {
	return core.NewSuite(benches, commits)
}

// Benchmarks returns the full Table-2 roster.
func Benchmarks() []Benchmark { return spec.All() }

// BenchmarkByName looks up one Table-2 benchmark.
func BenchmarkByName(name string) (Benchmark, bool) { return spec.ByName(name) }

// DefaultWorkload returns a mid-of-the-road integer workload profile.
func DefaultWorkload() WorkloadParams { return workload.Default() }
