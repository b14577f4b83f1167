// Package spec provides the benchmark registry standing in for Table 2 of
// the paper: the 12 SPEC CPU2000 integer and 14 floating-point programs
// whose SimPoint slices drive the evaluation.
//
// Each benchmark is a named, seeded workload.Params profile. The profiles
// cannot reproduce the concrete SPEC programs (proprietary binaries, IA-64
// compilations, SimPoint traces), so they are synthesised to span the
// behavioural axes the paper's results depend on:
//
//   - integer codes carry more branches, more mispredictions and more
//     predication — hence more wrong-path and predicated-false IQ state
//     (the π-to-commit bar of Figure 2 is biggest for INT);
//   - floating-point codes carry more no-ops and software prefetches —
//     hence the anti-π bit matters most for FP (60% vs 35% in the paper) —
//     plus streaming access patterns;
//   - memory-boundedness varies widely, producing the per-benchmark spread
//     of squash benefit in Figure 4 (ammp's few critical misses make
//     squashing spectacularly effective there).
//
// The paper's per-benchmark "instructions skipped" column is reused as the
// deterministic seed of each profile.
package spec

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"softerror/internal/workload"
)

// Benchmark is one entry of the Table-2 roster.
type Benchmark struct {
	// Name matches the paper's benchmark-input naming.
	Name string
	// FP marks floating-point benchmarks.
	FP bool
	// SkippedM is the paper's SimPoint skip distance in millions of
	// instructions (Table 2); it doubles as the workload seed.
	SkippedM int
	// Params is the synthetic workload profile.
	Params workload.Params
}

// tweak describes how one benchmark deviates from its base profile.
type tweak func(*workload.Params)

func intBase() workload.Params {
	p := workload.Default()
	// Integer codes: more control flow, more predication, fewer FP ops.
	p.FPFrac = 0.01
	p.NopFrac = 0.22
	p.PrefetchFrac = 0.02
	p.MispredictRate = 0.07
	p.PredicatedFrac = 0.20
	p.MeanBlockLen = 7
	return p
}

func fpBase() workload.Params {
	p := workload.Default()
	// FP codes: nop/prefetch heavy bundles, long compute blocks, well
	// predicted loops, streaming memory.
	p.FloatingPoint = true
	p.FPFrac = 0.18
	p.LoadFrac = 0.16
	p.NopFrac = 0.30
	p.PrefetchFrac = 0.06
	p.HintFrac = 0.005
	p.MispredictRate = 0.02
	p.PredicatedFrac = 0.06
	p.MeanBlockLen = 14
	p.MeanCalleeLen = 120
	return p
}

// roster defines the 26 Table-2 benchmarks. Tweaks are loosely informed by
// the programs' published characters (mcf/art memory-bound, crafty/sixtrack
// compute-bound, perlbmk branchy, swim/mgrid streaming, ...).
var roster = []struct {
	name     string
	fp       bool
	skippedM int
	tweak    tweak
}{
	// --- integer ---
	{"bzip2-source", false, 48900, func(p *workload.Params) {
		p.L1Frac, p.L2Frac = 0.012, 0.005
	}},
	{"cc-200", false, 16600, func(p *workload.Params) {
		p.MispredictRate = 0.09
		p.CallFrac = 0.02
		p.DeadLocalFrac = 0.35
	}},
	{"crafty", false, 120600, func(p *workload.Params) {
		p.L1Frac, p.L2Frac, p.MemFrac = 0.004, 0.001, 0.0001
		p.DepDistance = 7
	}},
	{"eon-kajiya", false, 73000, func(p *workload.Params) {
		p.FPFrac = 0.10
		p.L1Frac, p.L2Frac, p.MemFrac = 0.005, 0.002, 0.0002
		p.CallFrac = 0.025
	}},
	{"gap", false, 18800, func(p *workload.Params) {
		p.CallFrac = 0.02
		p.L1Frac = 0.012
	}},
	{"gzip-graphic", false, 29000, func(p *workload.Params) {
		p.L1Frac, p.L2Frac = 0.010, 0.003
		p.MispredictRate = 0.06
	}},
	{"mcf", false, 26200, func(p *workload.Params) {
		// Pointer-chasing, badly memory bound.
		p.L0Frac, p.L1Frac, p.L2Frac, p.MemFrac = 0.960, 0.020, 0.016, 0.004
		p.LoadUseDistance = 6
		p.DepDistance = 4
		p.MissBurstiness = 0.5
	}},
	{"parser", false, 71400, func(p *workload.Params) {
		p.MispredictRate = 0.08
		p.L1Frac = 0.011
	}},
	{"perlbmk-makerand", false, 0, func(p *workload.Params) {
		p.MispredictRate = 0.10
		p.CallFrac = 0.03
		p.MeanBlockLen = 6
	}},
	{"twolf", false, 185400, func(p *workload.Params) {
		p.L1Frac, p.L2Frac = 0.014, 0.007
		p.MispredictRate = 0.08
	}},
	{"vortex-lendian3", false, 59300, func(p *workload.Params) {
		p.CallFrac = 0.025
		p.DeadLocalFrac = 0.40
		p.L1Frac = 0.012
	}},
	{"vpr-route", false, 49200, func(p *workload.Params) {
		p.L1Frac, p.L2Frac = 0.013, 0.006
		p.MispredictRate = 0.09
	}},

	// --- floating point ---
	{"ammp", true, 50900, func(p *workload.Params) {
		// The paper's outlier: instructions queue behind a few critical
		// misses, so squashing slashes AVF for almost no IPC cost.
		p.L0Frac, p.L1Frac, p.L2Frac, p.MemFrac = 0.982, 0.010, 0.0065, 0.0015
		p.MissBurstiness = 0.9
		p.FetchBubbleProb = 0.08
		p.LoadUseDistance = 8
	}},
	{"applu", true, 500, func(p *workload.Params) {
		p.L1Frac, p.L2Frac = 0.011, 0.006
	}},
	{"apsi", true, 100, func(p *workload.Params) {
		p.NopFrac = 0.33
		p.FPFrac = 0.14
		p.L1Frac = 0.010
	}},
	{"art-110", true, 36400, func(p *workload.Params) {
		// Tiny kernel streaming over a matrix that misses everywhere.
		p.L0Frac, p.L1Frac, p.L2Frac, p.MemFrac = 0.968, 0.018, 0.012, 0.002
		p.MissBurstiness = 0.85
		p.NopFrac = 0.26
	}},
	{"equake", true, 1500, func(p *workload.Params) {
		p.L1Frac, p.L2Frac = 0.012, 0.007
		p.LoadFrac = 0.19
	}},
	{"facerec", true, 64100, func(p *workload.Params) {
		p.L1Frac = 0.009
		p.PrefetchFrac = 0.08
	}},
	{"fma3d", true, 23600, func(p *workload.Params) {
		p.CallFrac = 0.015
		p.DeadLocalFrac = 0.35
	}},
	{"galgel", true, 5000, func(p *workload.Params) {
		p.FPFrac = 0.28
		p.NopFrac = 0.20
		p.L1Frac = 0.007
	}},
	{"lucas", true, 123500, func(p *workload.Params) {
		p.L1Frac, p.L2Frac = 0.013, 0.008
		p.PrefetchFrac = 0.07
	}},
	{"mesa", true, 73300, func(p *workload.Params) {
		p.FPFrac = 0.14
		p.MispredictRate = 0.04
		p.L1Frac = 0.006
	}},
	{"mgrid", true, 200, func(p *workload.Params) {
		p.NopFrac = 0.34
		p.PrefetchFrac = 0.08
		p.FPFrac = 0.12
		p.L1Frac = 0.009
	}},
	{"sixtrack", true, 4100, func(p *workload.Params) {
		// Compute bound: almost everything hits the L0.
		p.L0Frac, p.L1Frac, p.L2Frac, p.MemFrac = 0.995, 0.003, 0.0015, 0.0002
		p.FPFrac = 0.30
		p.NopFrac = 0.20
		p.LoadFrac = 0.12
	}},
	{"swim", true, 78100, func(p *workload.Params) {
		p.L1Frac, p.L2Frac, p.MemFrac = 0.014, 0.009, 0.001
		p.PrefetchFrac = 0.09
		p.NopFrac = 0.28
	}},
	{"wupwise", true, 23800, func(p *workload.Params) {
		p.CallFrac = 0.02
		p.L1Frac = 0.008
	}},
}

// benchmarks is the roster built and validated once: every lookup (and
// every served request that names benchmarks) reads it instead of
// rebuilding 26 profiles.
var benchmarks = buildRoster()

func buildRoster() []Benchmark {
	out := make([]Benchmark, 0, len(roster))
	for _, r := range roster {
		p := intBase()
		if r.fp {
			p = fpBase()
		}
		p.Name = r.name
		p.FloatingPoint = r.fp
		p.Seed = uint64(r.skippedM)*2654435761 + fnv(r.name)
		r.tweak(&p)
		if err := p.Validate(); err != nil {
			panic(fmt.Sprintf("spec: profile %s invalid: %v", r.name, err))
		}
		out = append(out, Benchmark{Name: r.name, FP: r.fp, SkippedM: r.skippedM, Params: p})
	}
	return out
}

// All returns the full 26-benchmark roster in Table-2 order (integer then
// floating point). The returned slice and its Params are fresh copies.
func All() []Benchmark { return slices.Clone(benchmarks) }

// Integer returns the integer subset of the roster.
func Integer() []Benchmark { return filter(false) }

// FloatingPoint returns the floating-point subset of the roster.
func FloatingPoint() []Benchmark { return filter(true) }

func filter(fp bool) []Benchmark {
	var out []Benchmark
	for _, b := range benchmarks {
		if b.FP == fp {
			out = append(out, b)
		}
	}
	return out
}

// ByName looks a benchmark up by its Table-2 name.
func ByName(name string) (Benchmark, bool) {
	for _, b := range benchmarks {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// ParseList resolves a comma-separated benchmark list to roster entries,
// trimming whitespace around names; an empty (or all-blank) list means the
// full roster. It is the shared vocabulary of the -benches flags and the
// evaluation service's request schema.
func ParseList(list string) ([]Benchmark, error) {
	if strings.TrimSpace(list) == "" {
		return All(), nil
	}
	var out []Benchmark
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		b, ok := ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q (known: %s)",
				name, strings.Join(Names(), ", "))
		}
		out = append(out, b)
	}
	return out, nil
}

// Names returns the sorted benchmark names, for CLI help text.
func Names() []string {
	names := make([]string, len(benchmarks))
	for i, b := range benchmarks {
		names[i] = b.Name
	}
	sort.Strings(names)
	return names
}

func fnv(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
