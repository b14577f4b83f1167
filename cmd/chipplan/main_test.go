package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// capture runs chipplan with args and returns what it printed.
func capture(t *testing.T, args ...string) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	runErr := run(args)
	os.Stdout = old
	w.Close()
	got := <-out
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return got
}

// TestMeasureMode pins the -measure surface: a measured gzip-graphic budget
// and its plan print exactly the checked-in golden output. Regenerate with
//
//	go run ./cmd/chipplan -measure gzip-graphic -commits 8000 -rawfit 0.05 > cmd/chipplan/testdata/measure.golden
//
// only for a deliberate change of the model.
func TestMeasureMode(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "measure.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := capture(t, "-measure", "gzip-graphic", "-commits", "8000", "-rawfit", "0.05")
	if !bytes.Equal(got, want) {
		t.Fatalf("chipplan output drifted from testdata/measure.golden:\n%s", got)
	}
}

func TestBudgetFileMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "budget.json")
	data := []byte(`{
		"RawFITPerBit": 0.05,
		"SDCTargetYears": 5000,
		"DUETargetYears": 25,
		"Structures": [
			{"Name": "iq", "Bits": 2624, "SDCAVF": 0.3, "FalseDUEAVF": 0.25},
			{"Name": "rf", "Bits": 18752, "SDCAVF": 0.1, "FalseDUEAVF": 0.01}
		]
	}`)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	capture(t, "-budget", path)
}

func TestErrors(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("no mode accepted")
	}
	if err := run([]string{"-measure", "x", "-budget", "y"}); err == nil {
		t.Error("both modes accepted")
	}
	if err := run([]string{"-measure", "nosuch"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := run([]string{"-budget", filepath.Join(t.TempDir(), "none.json")}); err == nil {
		t.Error("missing budget accepted")
	}
	garbage := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(garbage, []byte("{"), 0o644)
	if err := run([]string{"-budget", garbage}); err == nil {
		t.Error("garbage budget accepted")
	}
}
