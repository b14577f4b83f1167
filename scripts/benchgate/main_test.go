package main

import (
	"strings"
	"testing"
)

// metricsOf reads the end-to-end metrics the gate judges from the
// repository's BENCHMARK.json.
func metricsOf(t *testing.T) []metricSpec {
	t.Helper()
	s, err := loadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return s.EndToEnd
}

func spec1(t *testing.T, name string) metricSpec {
	t.Helper()
	for _, m := range metricsOf(t) {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("BENCHMARK.json declares no end-to-end metric %s", name)
	return metricSpec{}
}

// run builds a correct perfbench result with one metric value.
func run(metric string, v float64) result {
	r := result{Correct: true, Attempted: 100}
	r.Metrics = map[string]struct {
		Value float64 `json:"value"`
	}{metric: {Value: v}}
	return r
}

// pairsOf makes ten pairs at base value 1: the first nWorse have change
// value worseBy, the rest are better by the same amount.
func pairsOf(m metricSpec, nWorse int, worseBy float64) []pair {
	worse, better := 1+worseBy, 1-worseBy
	if m.Better == "higher" {
		worse, better = better, worse
	}
	ps := make([]pair, pairs)
	for i := range ps {
		c := better
		if i < nWorse {
			c = worse
		}
		ps[i] = pair{run(m.Name, 1), run(m.Name, c)}
	}
	return ps
}

// verdictOf judges ps and returns the verdict for metric.
func verdictOf(t *testing.T, m metricSpec, ps []pair, metric string) verdict {
	t.Helper()
	for _, v := range judge("w", []metricSpec{m}, ps) {
		if v.metric == metric {
			return v
		}
	}
	t.Fatalf("no verdict for %s", metric)
	return verdict{}
}

func TestJudge(t *testing.T) {
	cpu := spec1(t, "cpu_s")
	past := 2 * cpu.Bound
	cases := []struct {
		name   string
		m      metricSpec
		nWorse int
		by     float64
		fail   bool
	}{
		{"8/10 worse past the bound", cpu, 8, past, true},
		{"7/10 worse", cpu, 7, past, false},
		{"10/10 worse within the bound", cpu, 10, cpu.Bound / 2, false},
		{"higher is better, 8/10 lower past the bound", spec1(t, "sim_mcycles_per_s"), 8, past, true},
		{"higher is better, 10/10 higher", spec1(t, "sim_mcycles_per_s"), 0, past, false},
	}
	for _, c := range cases {
		v := verdictOf(t, c.m, pairsOf(c.m, c.nWorse, c.by), c.m.Name)
		if v.fail != c.fail {
			t.Errorf("%s: fail = %v, want %v: %s", c.name, v.fail, c.fail, v.line)
		}
		if !strings.Contains(v.line, c.m.Name) {
			t.Errorf("%s: line does not name the metric: %s", c.name, v.line)
		}
	}
}

func TestJudgeCorrectness(t *testing.T) {
	m := spec1(t, "cpu_s")
	same := func() []pair { return pairsOf(m, 5, 0.01) }
	if v := verdictOf(t, m, same(), "correct"); v.fail {
		t.Errorf("same results fail: %s", v.line)
	}
	ps := same()
	ps[3].change.Correct = false
	if v := verdictOf(t, m, ps, "correct"); !v.fail {
		t.Errorf("a change run that is not correct passes: %s", v.line)
	}
	ps = same()
	ps[0].change.Failed = 1
	if v := verdictOf(t, m, ps, "correct"); !v.fail {
		t.Errorf("a higher failed share passes: %s", v.line)
	}
	ps[5].base.Failed = 1
	if v := verdictOf(t, m, ps, "correct"); v.fail {
		t.Errorf("an equal failed share fails: %s", v.line)
	}
}

func TestMetricsDeclared(t *testing.T) {
	for _, m := range metricsOf(t) {
		if (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 {
			t.Errorf("%s: better %q bound %v", m.Name, m.Better, m.Bound)
		}
	}
}
