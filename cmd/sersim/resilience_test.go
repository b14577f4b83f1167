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

// captureStdout redirects os.Stdout to a file for one run() and returns its
// contents.
func captureStdout(t *testing.T, fn func() error) ([]byte, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = f
	runErr := fn()
	os.Stdout = old
	f.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, runErr
}

// TestFaultCampaignCrashResume kills the -strikes campaign with an injected
// panic, then resumes it; the resumed invocation's full report must be
// byte-identical to one that was never interrupted.
func TestFaultCampaignCrashResume(t *testing.T) {
	base := []string{"-commits", "8000", "-strikes", "1500", "-faultseed", "3", "-j", "2"}
	straight, err := captureStdout(t, func() error { return run(base) })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(straight, []byte("fault-injection outcomes")) {
		t.Fatalf("straight run printed no campaign table:\n%s", straight)
	}

	ckPath := filepath.Join(t.TempDir(), "faults.ckpt")
	withCk := append(base, "-checkpoint", ckPath)
	par.SetChaos(func(_ context.Context, index int) error {
		if index >= 3 {
			panic(fmt.Sprintf("chaos: simulated crash in cell %d", index))
		}
		return nil
	})
	_, err = captureStdout(t, func() error { return run(withCk) })
	par.SetChaos(nil)
	if err == nil {
		t.Fatal("chaos-crashed campaign reported success")
	}
	if _, err := os.Stat(ckPath); err != nil {
		t.Fatalf("no checkpoint after crash: %v", err)
	}

	resumed, err := captureStdout(t, func() error { return run(append(withCk, "-resume")) })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(straight, resumed) {
		t.Fatalf("resumed report differs from straight-through report:\n--- straight\n%s\n--- resumed\n%s", straight, resumed)
	}
	if _, err := os.Stat(ckPath); !os.IsNotExist(err) {
		t.Error("checkpoint not removed after a completed campaign")
	}
}

func TestSersimUsageExitCodes(t *testing.T) {
	cases := [][]string{
		{"-resume"},               // -resume without -checkpoint
		{"-checkpoint", "x.ckpt"}, // -checkpoint without -strikes
		{"-bench", "nosuch"},      // unknown benchmark
		{"-policy", "nosuch"},     // unknown policy
		{"-nosuchflag"},           // unknown flag
	}
	for _, args := range cases {
		err := run(args)
		if code := cli.ExitCode(err); code != cli.ExitUsage {
			t.Errorf("run(%v) exit code = %d (%v), want %d", args, code, err, cli.ExitUsage)
		}
	}
}
