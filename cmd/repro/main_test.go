package main

import (
	"os"
	"testing"

	"softerror/internal/cli"
	"softerror/internal/core"
)

// silence routes stdout to /dev/null for the duration of a test so the
// experiment tables don't clutter test logs.
func silence(t *testing.T) {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	t.Cleanup(func() {
		os.Stdout = old
		devnull.Close()
	})
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                               // no experiment
		{"nonsense"},                     // unknown experiment
		{"-benches", "nosuch", "table1"}, // unknown benchmark
		{"table1", "extra"},              // too many args
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestRunRefusesBadKnobs pins that the counts and rates seratd refuses
// are usage errors here too, refused before anything is simulated.
func TestRunRefusesBadKnobs(t *testing.T) {
	cases := [][]string{
		{"-rawfit", "-1", "protection"},
		{"-rawfit", "NaN", "protection"},
		{"-rawfit", "+Inf", "protection"},
		{"-pet", "-1", "fig2"},
		{"-simpoints", "-2", "simpoints"},
		{"-strikes", "-5", "outcomes"},
		{"-simpoints", "0", "simpoints"},
		{"-strikes", "0", "outcomes"},
	}
	before := core.CyclesSimulated()
	for _, args := range cases {
		err := run(append([]string{"-benches", "mcf", "-commits", "2000"}, args...))
		if code := cli.ExitCode(err); code != cli.ExitUsage {
			t.Errorf("run(%v) exit code = %d (%v), want %d", args, code, err, cli.ExitUsage)
		}
	}
	if after := core.CyclesSimulated(); after != before {
		t.Errorf("refused runs simulated %d cycles", after-before)
	}
}

func TestRunSmallExperiments(t *testing.T) {
	silence(t)
	common := []string{"-benches", "gzip-graphic,ammp", "-commits", "8000"}
	experiments := []string{"table1", "table2", "fig2", "fig3", "fig4", "breakdown", "ablation", "protection", "regfile"}
	for _, exp := range experiments {
		args := append(append([]string{}, common...), exp)
		if err := run(args); err != nil {
			t.Errorf("run(%s): %v", exp, err)
		}
	}
}

func TestRunOutcomes(t *testing.T) {
	silence(t)
	args := []string{"-benches", "gzip-graphic", "-commits", "8000", "-strikes", "2000", "outcomes"}
	if err := run(args); err != nil {
		t.Fatalf("outcomes: %v", err)
	}
}

func TestRunSimPoints(t *testing.T) {
	silence(t)
	args := []string{"-benches", "gzip-graphic", "-commits", "6000", "-simpoints", "2", "simpoints"}
	if err := run(args); err != nil {
		t.Fatalf("simpoints: %v", err)
	}
}

func TestRunCSV(t *testing.T) {
	silence(t)
	args := []string{"-csv", "-benches", "gzip-graphic", "-commits", "8000", "table1"}
	if err := run(args); err != nil {
		t.Fatalf("csv table1: %v", err)
	}
}
