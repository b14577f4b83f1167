package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"softerror/internal/cli"
	"softerror/internal/par"
)

// TestSweepCrashResumeByteIdentical drives the whole command through a
// kill-and-resume cycle: the first invocation loses a cell to an injected
// panic and exits with the partial code, the -resume invocation finishes the
// grid, and the final CSV is byte-identical to an uninterrupted run.
func TestSweepCrashResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	base := []string{
		"-q", "-benches", "gzip-graphic", "-policies", "baseline,squash-l1",
		"-iqsizes", "32,64", "-ooo", "false", "-commits", "3000", "-j", "2",
	}
	straightOut := filepath.Join(dir, "straight.csv")
	if err := run(append(base, "-out", straightOut)); err != nil {
		t.Fatal(err)
	}
	straight, err := os.ReadFile(straightOut)
	if err != nil {
		t.Fatal(err)
	}

	ckPath := filepath.Join(dir, "grid.ckpt")
	crashOut := filepath.Join(dir, "crash.csv")
	par.SetChaos(func(_ context.Context, index int) error {
		if index == 3 {
			panic(fmt.Sprintf("chaos: simulated crash in cell %d", index))
		}
		return nil
	})
	err = run(append(base, "-out", crashOut, "-checkpoint", ckPath, "-onerror", "continue"))
	par.SetChaos(nil)
	if err == nil {
		t.Fatal("crashed sweep reported success")
	}
	if code := cli.ExitCode(err); code != cli.ExitPartial {
		t.Fatalf("crashed sweep exit code = %d, want %d (partial): %v", code, cli.ExitPartial, err)
	}
	if _, err := os.Stat(ckPath); err != nil {
		t.Fatalf("no checkpoint after crash: %v", err)
	}

	resumeOut := filepath.Join(dir, "resumed.csv")
	if err := run(append(base, "-out", resumeOut, "-checkpoint", ckPath, "-resume")); err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(resumeOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(straight, resumed) {
		t.Fatalf("resumed CSV differs from straight-through CSV:\n--- straight\n%s\n--- resumed\n%s", straight, resumed)
	}
	if _, err := os.Stat(ckPath); !os.IsNotExist(err) {
		t.Error("checkpoint not removed after a completed run")
	}
}

func TestSweepUsageExitCodes(t *testing.T) {
	cases := [][]string{
		{"-q", "-benches", "nosuch"},
		{"-q", "-policies", "nosuch"},
		{"-q", "-onerror", "nosuch"},
		{"-q", "-resume"},
		{"-q", "-nosuchflag"},
		{"-q", "-retries", "1"},      // cells run once: a retry would fail the same way
		{"-q", "-tasktimeout", "1s"}, // the pipeline's cycle-count watchdog stops stuck cells
	}
	for _, args := range cases {
		err := run(args)
		if code := cli.ExitCode(err); code != cli.ExitUsage {
			t.Errorf("run(%v) exit code = %d (%v), want %d", args, code, err, cli.ExitUsage)
		}
	}
}
