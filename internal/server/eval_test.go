package server

import (
	"context"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"softerror/internal/core"
	"softerror/internal/spec"
)

// TestNormalizeRejectsNegativeKnobs: the eval surface mirrors cmd/repro's
// flags, where every numeric knob is a count or a rate — negative or
// non-finite values must be refused at normalisation, not fed to the
// engine (a negative strike count reaches make([]T, n) paths downstream).
func TestNormalizeRejectsNegativeKnobs(t *testing.T) {
	cases := []struct {
		name string
		req  EvalRequest
	}{
		{"negative pet", EvalRequest{Experiment: "fig3", PET: -1}},
		{"negative simpoints", EvalRequest{Experiment: "table1", SimPoints: -4}},
		{"negative strikes", EvalRequest{Experiment: "outcomes", Strikes: -50}},
		{"negative rawfit", EvalRequest{Experiment: "fig4", RawFIT: -0.001}},
		{"nan rawfit", EvalRequest{Experiment: "fig4", RawFIT: math.NaN()}},
		{"inf rawfit", EvalRequest{Experiment: "fig4", RawFIT: math.Inf(1)}},
	}
	for _, tc := range cases {
		if _, err := tc.req.normalize(); err == nil {
			t.Errorf("%s: normalize accepted %+v", tc.name, tc.req)
		}
	}
}

// TestEvalFingerprintWellDefined: spelling out the documented defaults must
// address the same content as leaving the fields zero — otherwise the cache
// stores the same bytes twice and the CLI/server identity splits.
func TestEvalFingerprintWellDefined(t *testing.T) {
	implicit := EvalRequest{Experiment: "table1"}
	explicit := EvalRequest{
		Experiment: "table1",
		Commits:    core.DefaultCommits,
		PET:        512,
		RawFIT:     0.001,
		SimPoints:  4,
		Strikes:    50_000,
		Seed:       1,
	}
	a, err := implicit.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := explicit.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("default-valued request fingerprints differ: %s vs %s", a, b)
	}
	if len(a) != 64 || strings.Trim(a, "0123456789abcdef") != "" {
		t.Fatalf("fingerprint %q is not a SHA-256 hex digest", a)
	}
}

// TestEvalFingerprintInjective builds a family of normalized requests that
// are pairwise distinct — including cross-field traps where the same number
// moves between knobs — and checks no two share a content address.
func TestEvalFingerprintInjective(t *testing.T) {
	var reqs []EvalRequest
	for _, exp := range []string{"table1", "fig2", "fig3", "fig4", "breakdown"} {
		reqs = append(reqs, EvalRequest{Experiment: exp})
	}
	for i := uint64(1); i <= 8; i++ {
		reqs = append(reqs, EvalRequest{Experiment: "table1", Commits: 1000 * i})
	}
	reqs = append(reqs,
		EvalRequest{Experiment: "table1", CSV: true},
		EvalRequest{Experiment: "table1", Benches: []string{"gzip-graphic"}},
		EvalRequest{Experiment: "table1", Benches: []string{"ammp"}},
		EvalRequest{Experiment: "table1", Benches: []string{"gzip-graphic", "ammp"}},
		// The same scalar in different knobs must not collide.
		EvalRequest{Experiment: "outcomes", Strikes: 7},
		EvalRequest{Experiment: "outcomes", Seed: 7},
		EvalRequest{Experiment: "fig3", PET: 7},
		EvalRequest{Experiment: "fig3", SimPoints: 7},
	)
	seen := make(map[string]int)
	for i, r := range reqs {
		fp, err := r.Fingerprint()
		if err != nil {
			t.Fatalf("request %d (%+v): %v", i, r, err)
		}
		if j, dup := seen[fp]; dup {
			t.Fatalf("requests %d and %d share fingerprint %s:\n  %+v\n  %+v",
				j, i, fp, reqs[j], reqs[i])
		}
		seen[fp] = i
	}
}

// TestSuitePoolEvictionUnderConcurrentGet: a suite evicted from the pool
// while other goroutines still hold it must keep working — eviction drops
// the pool's reference, never the suite's own memo — and its results must
// match a fresh suite's exactly.
func TestSuitePoolEvictionUnderConcurrentGet(t *testing.T) {
	bench, _ := spec.ByName("gzip-graphic")
	pool := newSuitePool(context.Background(), 1, 1)

	held := pool.get(testCommits, []spec.Benchmark{bench}, []string{bench.Name})
	var wg sync.WaitGroup
	results := make([]*core.Result, 4)
	errs := make([]error, 4)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = held.Result(bench, core.PolicyBaseline)
		}(i)
	}
	// Evict the held suite by cycling distinct rosters through a max-1 pool
	// while the holders are (possibly) still simulating.
	for _, name := range []string{"ammp", "mcf", "equake"} {
		b, _ := spec.ByName(name)
		pool.get(testCommits, []spec.Benchmark{b}, []string{name})
	}
	wg.Wait()

	want, err := core.NewSuite([]spec.Benchmark{bench}, testCommits).Result(bench, core.PolicyBaseline)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range results {
		if errs[i] != nil {
			t.Fatalf("holder %d errored after eviction: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("holder %d result diverged after eviction:\n got %+v\nwant %+v", i, *got, *want)
		}
	}
	if s := pool.get(testCommits, []spec.Benchmark{bench}, []string{bench.Name}); s == held {
		t.Fatalf("pool returned the evicted suite instance; want a rebuild")
	}
}

// TestSuitePoolReusesSuite pins the memoisation the pool exists for.
func TestSuitePoolReusesSuite(t *testing.T) {
	bench, _ := spec.ByName("gzip-graphic")
	pool := newSuitePool(context.Background(), 1, 4)
	a := pool.get(testCommits, []spec.Benchmark{bench}, []string{bench.Name})
	b := pool.get(testCommits, []spec.Benchmark{bench}, []string{bench.Name})
	if a != b {
		t.Fatal("pool rebuilt a resident suite")
	}
}

// FuzzEvalRequest drives arbitrary JSON through the request surface:
// decode, normalize, fingerprint. Accepted requests must normalise to
// in-range knobs and a deterministic SHA-256 content address; everything
// else must be a clean error, never a panic.
func FuzzEvalRequest(f *testing.F) {
	f.Add([]byte(`{"experiment":"table1"}`))
	f.Add([]byte(`{"experiment":"fig2","benches":["gzip-graphic","ammp"],"commits":8000,"pet":64}`))
	f.Add([]byte(`{"experiment":"all","csv":true,"seed":42}`))
	f.Add([]byte(`{"experiment":"outcomes","strikes":-1}`))
	f.Add([]byte(`{"experiment":"nope"}`))
	f.Add([]byte(`{"benches":["not-a-benchmark"]}`))
	f.Add([]byte(`{"experiment":"fig4","rawfit":1e308}`))
	f.Add([]byte(`{"experiment":"table1","commits":4194305}`))
	f.Add([]byte(`{"experiment":"table1","commits":1000000000000}`))
	f.Add([]byte(`[]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var req EvalRequest
		if !decodeTestBody(data, &req) {
			return
		}
		e, err := req.normalize()
		if err != nil {
			return
		}
		if e.pet < 0 || e.simPoints < 0 || e.strikes < 0 ||
			e.rawFIT < 0 || math.IsNaN(e.rawFIT) || math.IsInf(e.rawFIT, 0) {
			t.Fatalf("normalize accepted out-of-range knobs: %+v", e)
		}
		if e.commits > core.MaxServedCommits {
			t.Fatalf("normalize accepted %d commits, past the cap %d", e.commits, core.MaxServedCommits)
		}
		if e.commits == 0 || e.seed == 0 || e.pet == 0 || e.simPoints == 0 || e.strikes == 0 {
			t.Fatalf("normalize left a knob at zero (default not applied): %+v", e)
		}
		if len(e.benches) == 0 {
			t.Fatalf("normalize produced an empty roster: %+v", e)
		}
		fp := e.fingerprint()
		if len(fp) != 64 || strings.Trim(fp, "0123456789abcdef") != "" {
			t.Fatalf("fingerprint %q is not a SHA-256 hex digest", fp)
		}
		if again := e.fingerprint(); again != fp {
			t.Fatalf("fingerprint not deterministic: %s vs %s", fp, again)
		}
	})
}
