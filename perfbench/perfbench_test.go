package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"testing"

	"softerror/internal/core"
)

// tiny returns options for a smoke run: small commit and strike budgets,
// which switch every correctness check to an untimed reference.
func tiny(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload, seed: 3, seconds: 0.01, trace: trace,
		root: "..", out: t.TempDir(), commits: 2000, strikes: 200,
	}
}

func runTiny(t *testing.T, o options) result {
	t.Helper()
	res, notes, err := run(context.Background(), o)
	for _, n := range notes {
		t.Log(n)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", o.workload, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// TestSmoke runs every workload untraced and traced at a tiny size and
// checks each emits exactly its declared metrics, with their units.
func TestSmoke(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			o := tiny(t, name, trace)
			res := runTiny(t, o)
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, d.name, m, d.unit)
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", name, d.name, res.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

// TestDeclaredMetrics pins BENCHMARK.json's metric lists to the ones the
// benchmark emits, and every name and unit to the allowed alphabets.
func TestDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var doc struct {
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, l := range []struct {
		listed   []entry
		declared []decl
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(l.listed) != len(l.declared) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark %d", len(l.listed), len(l.declared))
			continue
		}
		for i, e := range l.listed {
			d := l.declared[i]
			if e.Name != d.name || e.Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %s/%s, benchmark %s/%s", i, e.Name, e.Unit, d.name, d.unit)
			}
			if !nameRE.MatchString(e.Name) || !unitRE.MatchString(e.Unit) || seen[e.Name] {
				t.Errorf("metric %q (unit %q) is malformed or repeated", e.Name, e.Unit)
			}
			if e.Better != "lower" && e.Better != "higher" {
				t.Errorf("metric %s: better = %q", e.Name, e.Better)
			}
			seen[e.Name] = true
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}

// TestReenactedCycles checks that the traced sweep-ooo run, which
// re-enacts the grid's batches from public parts, reports exactly the
// cycles an untraced grid simulates.
func TestReenactedCycles(t *testing.T) {
	o := tiny(t, "sweep-ooo", true)
	res := runTiny(t, o)
	c0 := core.CyclesSimulated()
	if _, err := runGrid(context.Background(), sweepGrid(o, maxProcs)); err != nil {
		t.Fatal(err)
	}
	want := float64(core.CyclesSimulated()-c0) / 1e6
	if got := res.Metrics["core.sim_mcycles"].Value; got != want {
		t.Fatalf("traced core.sim_mcycles = %v, untraced grid simulated %v", got, want)
	}
}
