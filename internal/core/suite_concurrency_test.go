package core

import (
	"reflect"
	"sync"
	"testing"

	"softerror/internal/spec"
)

// TestSuiteSingleFlight proves the memo's single-flight guarantee: many
// goroutines requesting the same (benchmark, policy) cell concurrently
// execute exactly one simulation and all observe the same result.
func TestSuiteSingleFlight(t *testing.T) {
	b, ok := spec.ByName("mcf")
	if !ok {
		t.Fatal("mcf missing from roster")
	}
	s := NewSuite([]spec.Benchmark{b}, 5_000)

	const callers = 16
	results := make([]*Result, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			r, err := s.Result(b, PolicyBaseline)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()

	if n := s.Simulations(); n != 1 {
		t.Fatalf("%d concurrent Result calls executed %d simulations, want 1", callers, n)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d received a different *Result than caller 0", i)
		}
	}
}

// TestSuitePrewarmDedupes checks that a Prewarm followed by the aggregation
// drivers never re-simulates a cell: Table1 over three policies on a
// prewarmed suite costs exactly benches x policies simulations.
func TestSuitePrewarmDedupes(t *testing.T) {
	var benches []spec.Benchmark
	for _, name := range []string{"mcf", "ammp"} {
		b, ok := spec.ByName(name)
		if !ok {
			t.Fatalf("%s missing from roster", name)
		}
		benches = append(benches, b)
	}
	s := NewSuite(benches, 5_000)
	s.Workers = 4
	pols := []Policy{PolicyBaseline, PolicySquashL1, PolicySquashL0}
	if err := s.Prewarm(pols...); err != nil {
		t.Fatal(err)
	}
	want := uint64(len(benches) * len(pols))
	if n := s.Simulations(); n != want {
		t.Fatalf("Prewarm ran %d simulations, want %d", n, want)
	}
	if _, err := s.Table1(); err != nil {
		t.Fatal(err)
	}
	if n := s.Simulations(); n != want {
		t.Fatalf("Table1 after Prewarm re-simulated: %d simulations, want %d", n, want)
	}
}

// TestAllPolicies pins the helper's order to policy declaration order.
func TestAllPolicies(t *testing.T) {
	pols := AllPolicies()
	if len(pols) != NumPolicies {
		t.Fatalf("AllPolicies returned %d policies, want %d", len(pols), NumPolicies)
	}
	for i, p := range pols {
		if p != Policy(i) {
			t.Fatalf("AllPolicies[%d] = %v", i, p)
		}
	}
}

// TestPrewarmAllSingleFlight races the roster walk against the drivers of
// the studies it memoises: every cell, the register-file and protection
// rows included, is simulated once, so the race costs exactly the cycles
// of one walk and yields the walk's rows.
func TestPrewarmAllSingleFlight(t *testing.T) {
	var benches []spec.Benchmark
	for _, name := range []string{"mcf", "ammp"} {
		b, ok := spec.ByName(name)
		if !ok {
			t.Fatalf("%s missing from roster", name)
		}
		benches = append(benches, b)
	}
	walk := NewSuite(benches, 5_000)
	c0 := CyclesSimulated()
	if err := walk.PrewarmAll(); err != nil {
		t.Fatal(err)
	}
	want := CyclesSimulated() - c0

	s := NewSuite(benches, 5_000)
	s.Workers = 2
	c0 = CyclesSimulated()
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			switch i % 3 {
			case 0:
				err = s.PrewarmAll()
			case 1:
				_, err = s.RegFile()
			case 2:
				_, err = s.Protection(0.001)
			}
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if got := CyclesSimulated() - c0; got != want {
		t.Errorf("racing drivers simulated %d cycles, one walk %d", got, want)
	}
	if n, want := s.Simulations(), uint64(5*len(benches)); n != want {
		t.Errorf("racing drivers ran %d policy simulations, want %d", n, want)
	}
	for _, suite := range []*Suite{walk, s} {
		c0 = CyclesSimulated()
		if _, err := suite.RegFile(); err != nil {
			t.Fatal(err)
		}
		if _, err := suite.Protection(0.001); err != nil {
			t.Fatal(err)
		}
		if got := CyclesSimulated() - c0; got != 0 {
			t.Errorf("studies after the walk simulated %d cycles, want 0", got)
		}
	}
	gotRF, _ := s.RegFile()
	wantRF, _ := walk.RegFile()
	if !reflect.DeepEqual(gotRF, wantRF) {
		t.Errorf("register-file rows differ:\n%+v\nwant\n%+v", gotRF, wantRF)
	}
	gotP, _ := s.Protection(0.001)
	wantP, _ := walk.Protection(0.001)
	if !reflect.DeepEqual(gotP, wantP) {
		t.Errorf("protection rows differ:\n%+v\nwant\n%+v", gotP, wantP)
	}
}
