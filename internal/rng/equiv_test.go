package rng

import (
	"math"
	"testing"
)

// refBool and refGeometric are Bool and Geometric as they were written
// before the integer-threshold kernels: the reference the kernels must
// match draw for draw.
func refBool(s *Stream, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

func refGeometric(s *Stream, p float64) int {
	n := 0
	for !refBool(s, p) {
		n++
		if n >= 1<<20 {
			break
		}
	}
	return n
}

// probeProbs is the fixed table of probabilities the equivalence tests
// cover, followed by random ones: uniform in (0, 1), and log-uniform down
// to 2^-60 so the small thresholds are exercised too.
func probeProbs() []float64 {
	ps := []float64{1, 0.5, 1.0 / 3, 1.0 / 7, math.Ldexp(1, -40), math.Nextafter(1, 0)}
	r := New(2024, 0x7e57)
	for i := 0; i < 100; i++ {
		ps = append(ps, r.Float64())
	}
	for i := 0; i < 20; i++ {
		ps = append(ps, math.Ldexp(1, -2-r.Intn(59))*(1+r.Float64()))
	}
	return ps
}

func TestBoolThresholdMatchesFloat(t *testing.T) {
	for _, p := range probeProbs() {
		if p > 0 && p < 1 {
			// The threshold is the exact boundary between the draws Float64
			// maps below p and those it maps at or above it.
			thr := threshold53(p)
			if !(float64(thr-1)/(1<<53) < p) || float64(thr)/(1<<53) < p {
				t.Fatalf("p=%g: threshold %d is not the Float64 boundary", p, thr)
			}
		}
		a, b := New(uint64(p*1e9), 3), New(uint64(p*1e9), 3)
		for i := 0; i < 2000; i++ {
			if got, want := a.Bool(p), refBool(b, p); got != want {
				t.Fatalf("p=%g draw %d: Bool %v, reference %v", p, i, got, want)
			}
			if *a != *b {
				t.Fatalf("p=%g draw %d: stream state diverged", p, i)
			}
		}
	}
}

func TestGeometricMatchesBoolLoop(t *testing.T) {
	for _, p := range probeProbs() {
		a, b := New(uint64(p*1e9), 5), New(uint64(p*1e9), 5)
		draws := 200
		if p < 1e-4 {
			draws = 1 // a call may run to the 2^20-trial guard
		}
		for i := 0; i < draws; i++ {
			if got, want := a.Geometric(p), refGeometric(b, p); got != want {
				t.Fatalf("p=%g call %d: Geometric %d, reference %d", p, i, got, want)
			}
			if *a != *b {
				t.Fatalf("p=%g call %d: stream state diverged", p, i)
			}
		}
	}
}

func TestPickerMatchesPick(t *testing.T) {
	r := New(77, 0x91c)
	tables := [][]float64{nil, {0, 0, 0}, {-1, 2}, {0.5, 0.15, 0.1, 0.2, 0.05}}
	for i := 0; i < 300; i++ {
		w := make([]float64, 1+r.Intn(12))
		for j := range w {
			switch r.Intn(4) {
			case 0:
				w[j] = 0
			case 1:
				w[j] = -r.Float64()
			default:
				w[j] = r.Float64()
			}
		}
		tables = append(tables, w)
	}
	for ti, w := range tables {
		pk := NewPicker(w)
		a, b := New(uint64(ti), 9), New(uint64(ti), 9)
		for i := 0; i < 500; i++ {
			if got, want := pk.Pick(a), b.Pick(w); got != want {
				t.Fatalf("table %d %v draw %d: Picker %d, Pick %d", ti, w, i, got, want)
			}
			if *a != *b {
				t.Fatalf("table %d draw %d: stream state diverged", ti, i)
			}
		}
	}
}
