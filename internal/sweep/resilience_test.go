package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"softerror/internal/checkpoint"
	"softerror/internal/par"
)

// TestGridCrashResumeByteIdenticalCSV is the acceptance scenario for the
// sweep artefact: a grid killed partway through (chaos-injected panic under
// fail-fast, exactly like a crashing cell), resumed from its checkpoint,
// must emit a CSV byte-identical to an uninterrupted run.
func TestGridCrashResumeByteIdenticalCSV(t *testing.T) {
	newGrid := func() *Grid {
		g := smallGrid(t)
		g.Commits = 3000
		g.Workers = 2
		return g
	}
	straightRows, err := newGrid().Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	var straight bytes.Buffer
	if err := WriteCSV(&straight, straightRows); err != nil {
		t.Fatal(err)
	}

	g := newGrid()
	path := filepath.Join(t.TempDir(), "grid.ckpt")
	ck, err := checkpoint.Open[Row](path, "sweep", g.Fingerprint(), g.Size(), false)
	if err != nil {
		t.Fatal(err)
	}
	ck.SetInterval(1)
	par.SetChaos(func(_ context.Context, index, attempt int) error {
		if index >= g.Size()/2 {
			panic(fmt.Sprintf("chaos: simulated crash in cell %d", index))
		}
		return nil
	})
	_, err = g.RunContext(context.Background(), ck, nil)
	par.SetChaos(nil)
	if err == nil {
		t.Fatal("chaos-crashed grid reported success")
	}
	if n := ck.CountDone(); n == 0 || n == g.Size() {
		t.Fatalf("checkpoint holds %d/%d cells; the crash should leave a strict partial", n, g.Size())
	}

	g2 := newGrid()
	ck2, err := checkpoint.Open[Row](path, "sweep", g2.Fingerprint(), g2.Size(), true)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := g2.RunContext(context.Background(), ck2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var resumed bytes.Buffer
	if err := WriteCSV(&resumed, rows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(straight.Bytes(), resumed.Bytes()) {
		t.Fatalf("resumed CSV differs from straight-through CSV:\n--- straight\n%s\n--- resumed\n%s",
			straight.String(), resumed.String())
	}
}

// TestGridCollectLosesOnlyPoisonedCell proves panic isolation at the grid
// level: under collect-and-continue a panicking cell costs exactly its own
// row, every other cell completes, and the error names the cell.
func TestGridCollectLosesOnlyPoisonedCell(t *testing.T) {
	g := smallGrid(t)
	g.Commits = 3000
	g.Workers = 2
	g.OnError = par.Collect
	const poisoned = 5
	par.SetChaos(func(_ context.Context, index, attempt int) error {
		if index == poisoned {
			panic("chaos: poisoned cell")
		}
		return nil
	})
	rows, err := g.RunContext(context.Background(), nil, nil)
	par.SetChaos(nil)

	var es par.Errors
	if !errors.As(err, &es) {
		t.Fatalf("err = %v (%T), want par.Errors", err, err)
	}
	if len(es) != 1 || es[0].Index != poisoned || es[0].Stack == nil {
		t.Fatalf("failures = %+v, want exactly index %d with a stack", es, poisoned)
	}
	if len(rows) != g.Size() {
		t.Fatalf("partial rows = %d, want full slice of %d", len(rows), g.Size())
	}
	for i, r := range rows {
		if i == poisoned {
			if r.IPC != 0 {
				t.Errorf("poisoned cell %d has a row: %+v", i, r)
			}
			continue
		}
		if r.IPC <= 0 {
			t.Errorf("cell %d lost to someone else's panic: %+v", i, r)
		}
	}

	var out bytes.Buffer
	skip := map[int]bool{poisoned: true}
	if err := WriteCSVSkipping(&out, rows, skip); err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(out.Bytes(), []byte("\n")); got != g.Size() {
		t.Errorf("skipping CSV has %d lines, want header + %d rows", got, g.Size()-1)
	}
}

// TestGridChaosSeesLeadersFirst pins the dispatch order: every batch
// group's first cell starts before any second member, so a second worker
// starts another batch instead of waiting on the first. smallGrid's two
// bench blocks are one group each, led by cells 0 and 4.
func TestGridChaosSeesLeadersFirst(t *testing.T) {
	g := smallGrid(t)
	g.Commits = 3000
	g.Workers = 1
	var seen []int // one worker: the hook runs task after task
	par.SetChaos(func(_ context.Context, index, attempt int) error {
		seen = append(seen, index)
		return nil
	})
	t.Cleanup(func() { par.SetChaos(nil) })
	if _, err := g.RunContext(context.Background(), nil, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(seen), "[0 4 1 2 3 5 6 7]"; got != want {
		t.Fatalf("cells dispatched as %s, want leaders first %s", got, want)
	}
}

// TestLeadersFirstSkipsDoneCells pins the resume order: checkpointed cells
// go first, and each group is led by its first pending cell, so a resumed
// grid still starts one batch per worker.
func TestLeadersFirstSkipsDoneCells(t *testing.T) {
	a, b := &groupRun{}, &groupRun{}
	groupOf := func(k int) *groupRun {
		if k < 4 {
			return a
		}
		return b
	}
	done := func(k int) bool { return k == 0 || k == 4 }
	if got, want := fmt.Sprint(leadersFirst(8, groupOf, done)), "[0 4 1 5 2 3 6 7]"; got != want {
		t.Fatalf("resume order %s, want %s", got, want)
	}
}

// TestGridCollectBlamesMovedCell poisons cell 4, the second bench's
// leader, which leaders-first dispatch moves from slot 4 to slot 1. The
// blame, the lost row and the skip set must all name cell 4: the task
// index stays the cell index whatever slot the cell is dispatched in.
func TestGridCollectBlamesMovedCell(t *testing.T) {
	g := smallGrid(t)
	g.Commits = 3000
	g.Workers = 2
	g.OnError = par.Collect
	const poisoned = 4
	par.SetChaos(func(_ context.Context, index, attempt int) error {
		if index == poisoned {
			panic("chaos: poisoned cell")
		}
		return nil
	})
	rows, err := g.RunContext(context.Background(), nil, nil)
	par.SetChaos(nil)

	var es par.Errors
	if !errors.As(err, &es) {
		t.Fatalf("err = %v (%T), want par.Errors", err, err)
	}
	if len(es) != 1 || es[0].Index != poisoned || es[0].Stack == nil {
		t.Fatalf("failures = %+v, want exactly index %d with a stack", es, poisoned)
	}
	for i, r := range rows {
		if (r.IPC != 0) == (i == poisoned) {
			t.Errorf("cell %d: row %+v; only cell %d may be lost", i, r, poisoned)
		}
	}
}

// TestRunIndicesCollectBlamesMovedPosition is the lease form of
// TestGridCollectBlamesMovedCell: on a shuffled lease, blame names the
// lease position, exactly as server.runGrid's remap expects, even though
// leaders-first dispatch moves that position to another slot. Every other
// position's row equals the full grid's row for its cell.
func TestRunIndicesCollectBlamesMovedPosition(t *testing.T) {
	full := smallGrid(t)
	full.Commits = 3000
	want, err := full.Run(nil)
	if err != nil {
		t.Fatal(err)
	}

	g := smallGrid(t)
	g.Commits = 3000
	g.Workers = 2
	g.OnError = par.Collect
	// Positions 0 and 2 lead the two benches' groups, so position 2 (cell 1)
	// is dispatched in slot 1.
	lease := []int{6, 4, 1, 3, 0, 7, 2, 5}
	const poisoned = 2
	par.SetChaos(func(_ context.Context, index, attempt int) error {
		if index == poisoned {
			panic("chaos: poisoned lease position")
		}
		return nil
	})
	out, err := g.RunIndices(context.Background(), lease, nil, nil)
	par.SetChaos(nil)

	var es par.Errors
	if !errors.As(err, &es) {
		t.Fatalf("err = %v (%T), want par.Errors", err, err)
	}
	if len(es) != 1 || es[0].Index != poisoned {
		t.Fatalf("failures = %v, want exactly lease position %d", es.Indices(), poisoned)
	}
	for k, r := range out {
		if k == poisoned {
			if r.IPC != 0 {
				t.Errorf("poisoned position %d has a row: %+v", k, r)
			}
			continue
		}
		if r != want[lease[k]] {
			t.Errorf("position %d (cell %d) = %+v, want %+v", k, lease[k], r, want[lease[k]])
		}
	}
}

// TestGridResumeRejectsChangedGrid pins the fingerprint guard: a checkpoint
// written by one grid must not silently resume a differently shaped one.
func TestGridResumeRejectsChangedGrid(t *testing.T) {
	g := smallGrid(t)
	path := filepath.Join(t.TempDir(), "grid.ckpt")
	ck, err := checkpoint.Open[Row](path, "sweep", g.Fingerprint(), g.Size(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Save(); err != nil {
		t.Fatal(err)
	}
	changed := smallGrid(t)
	changed.IQSizes = []int{16, 64}
	if _, err := checkpoint.Open[Row](path, "sweep", changed.Fingerprint(), changed.Size(), true); err == nil {
		t.Fatal("checkpoint of a different grid accepted for resume")
	}
}
