package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"softerror/internal/checkpoint"
	"softerror/internal/par"
)

func TestExitCodeMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, ExitOK},
		{flag.ErrHelp, ExitOK},
		{errors.New("boom"), ExitRuntime},
		{Usagef("bad flag"), ExitUsage},
		{&PartialError{Done: 3, Total: 8, Path: "x.ckpt", Err: errors.New("interrupted")}, ExitPartial},
		{fmt.Errorf("wrapped: %w", Usagef("inner")), ExitUsage},
		{fmt.Errorf("wrapped: %w", &PartialError{Err: errors.New("e")}), ExitPartial},
	}
	for _, c := range cases {
		if got := ExitCode(c.err); got != c.want {
			t.Errorf("ExitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

func TestParseClassifiesFlagErrors(t *testing.T) {
	newFS := func() *flag.FlagSet {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Bool("ok", false, "")
		return fs
	}
	if err := Parse(newFS(), []string{"-ok"}); err != nil {
		t.Errorf("valid args: %v", err)
	}
	if err := Parse(newFS(), []string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: err = %v, want flag.ErrHelp through unwrapped", err)
	}
	err := Parse(newFS(), []string{"-nope"})
	var ue *UsageError
	if !errors.As(err, &ue) {
		t.Errorf("unknown flag: err = %v (%T), want *UsageError", err, err)
	}
}

func TestPartialErrorMessage(t *testing.T) {
	pe := &PartialError{Done: 5, Total: 9, Path: "grid.ckpt", Err: errors.New("interrupt")}
	msg := pe.Error()
	for _, want := range []string{"5/9", "grid.ckpt", "-resume", "interrupt"} {
		if !strings.Contains(msg, want) {
			t.Errorf("PartialError message %q missing %q", msg, want)
		}
	}
	if !errors.Is(pe, pe.Err) {
		t.Error("PartialError does not unwrap to its cause")
	}
}

// TestPartialClassifies pins the one partial-result classifier: only a
// campaign with a checkpoint, stopped by cancellation or by poisoned cells
// under a collect policy, is partial, and it counts the cells on file.
func TestPartialClassifies(t *testing.T) {
	ck := checkpoint.New[int](filepath.Join(t.TempDir(), "c.ckpt"), "k", "fp", 5)
	for _, i := range []int{0, 3} {
		ck.Put(i, i)
	}
	poisoned := par.Errors{{Index: 1, Err: errors.New("boom")}}
	cases := []struct {
		name    string
		err     error
		ck      *checkpoint.File[int]
		partial bool
	}{
		{"success", nil, ck, false},
		{"nil file", context.Canceled, nil, false},
		{"cancelled", fmt.Errorf("run: %w", context.Canceled), ck, true},
		{"collect", poisoned, ck, true},
		{"unrelated", errors.New("disk full"), ck, false},
	}
	for _, c := range cases {
		got := Partial(c.err, c.ck)
		var pe *PartialError
		if errors.As(got, &pe) != c.partial {
			t.Errorf("%s: Partial = %v, want partial %v", c.name, got, c.partial)
			continue
		}
		if !c.partial {
			if got != c.err {
				t.Errorf("%s: Partial = %v, want the error unchanged", c.name, got)
			}
			continue
		}
		if pe.Done != 2 || pe.Total != 5 || pe.Path != ck.Path() || pe.Err.Error() != c.err.Error() {
			t.Errorf("%s: %+v, want 2/5 cells at %s wrapping %v", c.name, pe, ck.Path(), c.err)
		}
	}
}

func TestProfileWritesRequestedFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := dir + "/cpu.pprof"
	mem := dir + "/mem.pprof"
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	p := NewProfile(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1e5; i++ {
		_ = fmt.Sprintf("%d", i) // give the profiler something to sample
	}
	p.Stop()
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("empty profile %s", path)
		}
	}
}

func TestProfileNoopWithoutFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	p := NewProfile(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.Stop() // must not create files or panic
}
