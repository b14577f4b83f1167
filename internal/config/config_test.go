package config

import (
	"os"
	"path/filepath"
	"testing"

	"softerror/internal/pipeline"
	"softerror/internal/spec"
	"softerror/internal/workload"
)

func TestParseDefaults(t *testing.T) {
	cfg, err := Parse([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Workload.Name != workload.Default().Name {
		t.Fatalf("default workload name = %q", cfg.Workload.Name)
	}
	if cfg.Pipeline != pipeline.DefaultConfig() {
		t.Fatal("default pipeline expected")
	}
	if cfg.Commits != 0 {
		t.Fatal("commits should default to zero (caller applies DefaultCommits)")
	}
}

func TestParseBenchBase(t *testing.T) {
	cfg, err := Parse([]byte(`{"bench": "mcf", "commits": 12345}`))
	if err != nil {
		t.Fatal(err)
	}
	mcf, _ := spec.ByName("mcf")
	if cfg.Workload != mcf.Params {
		t.Fatal("bench base not applied")
	}
	if cfg.Commits != 12345 {
		t.Fatalf("commits = %d", cfg.Commits)
	}
}

func TestParsePartialOverrides(t *testing.T) {
	cfg, err := Parse([]byte(`{
		"bench": "mcf",
		"workload": {"MispredictRate": 0.11},
		"pipeline": {"IQSize": 128}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	mcf, _ := spec.ByName("mcf")
	if cfg.Workload.MispredictRate != 0.11 {
		t.Fatalf("override lost: %v", cfg.Workload.MispredictRate)
	}
	// Untouched fields keep the bench's values.
	if cfg.Workload.L0Frac != mcf.Params.L0Frac {
		t.Fatal("non-overridden workload field changed")
	}
	if cfg.Pipeline.IQSize != 128 {
		t.Fatalf("IQSize = %d", cfg.Pipeline.IQSize)
	}
	if cfg.Pipeline.FetchWidth != pipeline.DefaultConfig().FetchWidth {
		t.Fatal("non-overridden pipeline field changed")
	}
}

func TestParseRejections(t *testing.T) {
	bad := map[string]string{
		"garbage":          `{`,
		"unknown top":      `{"bogus": 1}`,
		"unknown workload": `{"workload": {"NoSuchKnob": 1}}`,
		"unknown pipeline": `{"pipeline": {"NoSuchKnob": 1}}`,
		"removed knob":     `{"pipeline": {"SingleStep": true}}`,
		"unknown bench":    `{"bench": "nosuch"}`,
		"invalid workload": `{"workload": {"MeanBlockLen": 0}}`,
		"invalid pipeline": `{"pipeline": {"IQSize": 0}}`,
	}
	for name, data := range bad {
		if _, err := Parse([]byte(data)); err == nil {
			t.Errorf("%s: accepted %q", name, data)
		}
	}
}

func TestLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "exp.json")
	if err := os.WriteFile(path, []byte(`{"bench": "ammp", "commits": 777}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Workload.Name != "ammp" || cfg.Commits != 777 {
		t.Fatalf("loaded config wrong: %+v", cfg)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}
