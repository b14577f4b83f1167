package core

import (
	"context"
	"math"
	"testing"

	"softerror/internal/spec"
)

func TestRunSimPointsBasics(t *testing.T) {
	b, _ := spec.ByName("gzip-graphic")
	sum, err := RunSimPoints(context.Background(), b, PolicyBaseline, 3, 10_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sum.N != 3 || sum.Bench != "gzip-graphic" {
		t.Fatalf("summary header wrong: %+v", sum)
	}
	if sum.MeanIPC <= 0 || sum.MeanSDCAVF <= 0 || sum.MeanDUEAVF <= sum.MeanSDCAVF {
		t.Fatalf("implausible means: %+v", sum)
	}
	// Different slices differ, but only by phase noise: stds are small
	// relative to the means.
	if sum.StdSDCAVF <= 0 {
		t.Fatal("distinct SimPoints should not be identical")
	}
	if sum.StdSDCAVF > 0.5*sum.MeanSDCAVF {
		t.Fatalf("SimPoint SDC spread implausibly wide: %+v", sum)
	}
}

func TestRunSimPointsFirstMatchesSingleRun(t *testing.T) {
	// The first SimPoint is the benchmark's headline configuration: a
	// single-point summary must equal a direct run.
	b, _ := spec.ByName("ammp")
	sum, err := RunSimPoints(context.Background(), b, PolicyBaseline, 1, 10_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Run(Config{Workload: b.Params, Commits: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum.MeanIPC-direct.IPC) > 1e-12 {
		t.Fatalf("first SimPoint IPC %v != direct %v", sum.MeanIPC, direct.IPC)
	}
	if math.Abs(sum.MeanSDCAVF-direct.Report.SDCAVF()) > 1e-12 {
		t.Fatal("first SimPoint SDC AVF mismatch")
	}
	if sum.StdIPC != 0 {
		t.Fatal("single SimPoint should have zero spread")
	}
}

func TestRunSimPointsRejectsZero(t *testing.T) {
	b, _ := spec.ByName("mcf")
	if _, err := RunSimPoints(context.Background(), b, PolicyBaseline, 0, 1000, 0); err == nil {
		t.Fatal("zero SimPoints accepted")
	}
}

func TestMeanStd(t *testing.T) {
	m, s := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(m-5) > 1e-12 {
		t.Fatalf("mean = %v", m)
	}
	if math.Abs(s-2.138)/2.138 > 0.01 { // sample std
		t.Fatalf("std = %v", s)
	}
	if m, s := meanStd(nil); m != 0 || s != 0 {
		t.Fatal("empty meanStd should be zero")
	}
	if _, s := meanStd([]float64{3}); s != 0 {
		t.Fatal("single-element std should be zero")
	}
}

func TestProtectionComparison(t *testing.T) {
	benches := []spec.Benchmark{}
	for _, name := range []string{"gzip-graphic", "ammp"} {
		b, _ := spec.ByName(name)
		benches = append(benches, b)
	}
	rows, err := NewSuite(benches, 10_000).Protection(0.001)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	by := map[string]ProtectionRow{}
	for _, r := range rows {
		by[r.Scheme] = r
	}
	unprot := by["unprotected"]
	parity := by["parity (conservative)"]
	store := by["parity + pi to store buffer"]
	mem := by["parity + pi through memory"]
	combined := by["parity + pi + squash-L1"]
	ecc := by["ecc (corrects single-bit)"]

	if unprot.SDCFIT <= 0 || unprot.DUEFIT != 0 {
		t.Fatalf("unprotected row wrong: %+v", unprot)
	}
	if parity.SDCFIT != 0 {
		t.Fatal("parity must eliminate SDC")
	}
	// The paper's §2.2 point: parity more than doubles the error rate.
	if float64(parity.DUEFIT) < 1.5*float64(unprot.SDCFIT) {
		t.Fatalf("parity DUE %v should far exceed unprotected SDC %v",
			parity.DUEFIT, unprot.SDCFIT)
	}
	// Tracking and squashing strictly improve.
	if !(store.DUEFIT < parity.DUEFIT && mem.DUEFIT < store.DUEFIT) {
		t.Fatalf("tracking ordering wrong: %v %v %v", parity.DUEFIT, store.DUEFIT, mem.DUEFIT)
	}
	if combined.DUEFIT >= store.DUEFIT {
		t.Fatalf("adding squash should reduce DUE: %v vs %v", combined.DUEFIT, store.DUEFIT)
	}
	if ecc.SDCFIT != 0 || ecc.DUEFIT != 0 {
		t.Fatal("ECC row should be zero-rate")
	}
	if by["unprotected + squash-L1"].SDCFIT >= unprot.SDCFIT {
		t.Fatal("squash should reduce unprotected SDC FIT")
	}
}

func TestFigure2UnderSquashShrinksBase(t *testing.T) {
	var benches []spec.Benchmark
	for _, name := range []string{"mcf", "ammp"} {
		b, _ := spec.ByName(name)
		benches = append(benches, b)
	}
	s := NewSuite(benches, 20_000)
	base, err := s.Figure2(512)
	if err != nil {
		t.Fatal(err)
	}
	squash, err := s.Figure2Under(PolicySquashL1, 512)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		// §6.3: squashing shrinks the false-DUE base the stack covers;
		// full deployment still reaches zero.
		if squash[i].BaseFalseDUE >= base[i].BaseFalseDUE {
			t.Errorf("%s: squash did not shrink false DUE (%.4f vs %.4f)",
				base[i].Bench, squash[i].BaseFalseDUE, base[i].BaseFalseDUE)
		}
		if squash[i].Remaining[5] != 0 {
			t.Errorf("%s: full stack under squash leaves %.4f", base[i].Bench, squash[i].Remaining[5])
		}
	}
}
