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

// TestOutcomesCrashResume kills the Figure-1 injection campaign with an
// injected panic, resumes it, and requires the resumed table to be
// byte-identical to an uninterrupted run's.
func TestOutcomesCrashResume(t *testing.T) {
	base := []string{"-benches", "gzip-graphic", "-commits", "8000", "-strikes", "1500", "-j", "2"}
	straight, err := captureStdout(t, func() error { return run(append(base, "outcomes")) })
	if err != nil {
		t.Fatal(err)
	}

	ckPath := filepath.Join(t.TempDir(), "outcomes.ckpt")
	withCk := append(append([]string{}, base...), "-checkpoint", ckPath)
	par.SetChaos(func(_ context.Context, index int) error {
		if index >= 3 {
			panic(fmt.Sprintf("chaos: simulated crash in cell %d", index))
		}
		return nil
	})
	_, err = captureStdout(t, func() error { return run(append(withCk, "outcomes")) })
	par.SetChaos(nil)
	if err == nil {
		t.Fatal("chaos-crashed campaign reported success")
	}
	if _, err := os.Stat(ckPath); err != nil {
		t.Fatalf("no checkpoint after crash: %v", err)
	}

	resumed, err := captureStdout(t, func() error {
		return run(append(append([]string{}, withCk...), "-resume", "outcomes"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(straight, resumed) {
		t.Fatalf("resumed table differs from straight-through table:\n--- straight\n%s\n--- resumed\n%s", straight, resumed)
	}
	if _, err := os.Stat(ckPath); !os.IsNotExist(err) {
		t.Error("checkpoint not removed after a completed campaign")
	}
}

func TestReproUsageExitCodes(t *testing.T) {
	cases := [][]string{
		{},
		{"nonsense"},
		{"-benches", "nosuch", "table1"},
		{"-resume", "outcomes"},
		{"-nosuchflag", "table1"},
	}
	for _, args := range cases {
		err := run(args)
		if code := cli.ExitCode(err); code != cli.ExitUsage {
			t.Errorf("run(%v) exit code = %d (%v), want %d", args, code, err, cli.ExitUsage)
		}
	}
}
