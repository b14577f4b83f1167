package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"softerror/internal/core"
)

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

func TestParsePolicy(t *testing.T) {
	good := []string{"baseline", "none", "squash-l1", "squash-l0", "throttle-l1", "throttle-l0"}
	for _, s := range good {
		if _, err := core.ParsePolicy(s); err != nil {
			t.Errorf("core.ParsePolicy(%q): %v", s, err)
		}
	}
	if _, err := core.ParsePolicy("bogus"); err == nil {
		t.Error("parsePolicy accepted nonsense")
	}
}

func TestRunDefaultWorkload(t *testing.T) {
	silence(t)
	if err := run([]string{"-commits", "8000"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBenchAndPolicies(t *testing.T) {
	silence(t)
	for _, pol := range []string{"baseline", "squash-l1", "throttle-l0"} {
		args := []string{"-bench", "mcf", "-policy", pol, "-commits", "8000"}
		if err := run(args); err != nil {
			t.Fatalf("policy %s: %v", pol, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-bench", "nosuch"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := run([]string{"-policy", "nosuch"}); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestRunWithConfigFile(t *testing.T) {
	silence(t)
	path := filepath.Join(t.TempDir(), "exp.json")
	data := []byte(`{"bench": "ammp", "commits": 6000, "pipeline": {"IQSize": 32}}`)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-config", path}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-config", filepath.Join(t.TempDir(), "none.json")}); err == nil {
		t.Error("missing config accepted")
	}
}

// TestGshareConfigGolden pins the -config surface for a PC-indexed branch
// predictor: a gshare out-of-order mcf run under squash-l1, with a strike
// campaign, prints exactly the checked-in golden output. Regenerate with
//
//	go run ./cmd/sersim -config cmd/sersim/testdata/gshare.json -policy squash-l1 -strikes 300 > cmd/sersim/testdata/gshare.golden
//
// only for a deliberate change of the model.
func TestGshareConfigGolden(t *testing.T) {
	checkGolden(t, "gshare.golden", "-config", filepath.Join("testdata", "gshare.json"), "-policy", "squash-l1", "-strikes", "300")
}

// TestDefaultRunGolden pins sersim's full report on the default in-order
// core, the Figure 1 strike campaign included. Regenerate with
//
//	go run ./cmd/sersim -bench mcf -commits 4000 -strikes 2000 > cmd/sersim/testdata/mcf.golden
//
// only for a deliberate change of the model or the report.
func TestDefaultRunGolden(t *testing.T) {
	checkGolden(t, "mcf.golden", "-bench", "mcf", "-commits", "4000", "-strikes", "2000")
}

// checkGolden runs sersim with args and demands it print testdata/golden.
func checkGolden(t *testing.T, golden string, args ...string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	got, err := captureStdout(t, func() error { return run(args) })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sersim output drifted from testdata/%s:\n%s", golden, got)
	}
}
