package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"softerror/internal/checkpoint"
	"softerror/internal/core"
	"softerror/internal/par"
	"softerror/internal/spec"
)

// TestGridCrashResumeByteIdenticalCSV is the acceptance scenario for the
// sweep artefact: a grid killed partway through (chaos-injected panic under
// fail-fast, exactly like a crashing cell), resumed from its checkpoint,
// must emit a CSV byte-identical to an uninterrupted run. The crash takes
// the second bench's batch; the first bench's batch lands.
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
	par.SetChaos(func(_ context.Context, index int) error {
		if index == 1 {
			panic(fmt.Sprintf("chaos: simulated crash in batch %d", index))
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
// level: under collect-and-continue a panicking batch costs exactly its own
// group's rows, every other cell completes with the uninterrupted grid's
// row, and the error names the group's cells, each with the panic's stack.
func TestGridCollectLosesOnlyPoisonedCell(t *testing.T) {
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
	par.SetChaos(func(_ context.Context, index int) error {
		if index == 1 { // ammp's batch: cells 4..7
			panic("chaos: poisoned batch")
		}
		return nil
	})
	rows, err := g.RunContext(context.Background(), nil, nil)
	par.SetChaos(nil)

	var es par.Errors
	if !errors.As(err, &es) {
		t.Fatalf("err = %v (%T), want par.Errors", err, err)
	}
	if got := fmt.Sprint(es.Indices()); got != "[4 5 6 7]" {
		t.Fatalf("failed cells = %s, want the poisoned group [4 5 6 7]", got)
	}
	skip := map[int]bool{}
	for _, te := range es {
		skip[te.Index] = true
		if te.Stack == nil || te.Err != es[0].Err {
			t.Errorf("cell %d: %v, want the group's one panic with its stack", te.Index, te)
		}
	}
	if len(rows) != g.Size() {
		t.Fatalf("partial rows = %d, want full slice of %d", len(rows), g.Size())
	}
	for i, r := range rows {
		if skip[i] {
			if r != (Row{}) {
				t.Errorf("poisoned cell %d has a row: %+v", i, r)
			}
		} else if r != want[i] {
			t.Errorf("cell %d = %+v, want the uninterrupted grid's %+v", i, r, want[i])
		}
	}

	var out bytes.Buffer
	if err := WriteCSVSkipping(&out, rows, skip); err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(out.Bytes(), []byte("\n")); got != g.Size()-len(skip)+1 {
		t.Errorf("skipping CSV has %d lines, want header + %d rows", got, g.Size()-len(skip))
	}
}

// TestGridBatchFailureFailsGroupOnce pins that a failed batch is simulated
// once: a batch whose workload cannot run fails every member of its group
// with the one error the leader saw, instead of each waiter re-leading the
// same deterministic failure.
func TestGridBatchFailureFailsGroupOnce(t *testing.T) {
	b, ok := spec.ByName("mcf")
	if !ok {
		t.Fatal("mcf not in roster")
	}
	b.Params.LoadFrac = 7 // an instruction mix over 1: the batch errors
	g := &Grid{
		Benches:    []spec.Benchmark{b},
		Policies:   []core.Policy{core.PolicyBaseline, core.PolicySquashL1, core.PolicySquashL0, core.PolicyThrottleL0},
		IQSizes:    []int{64},
		OutOfOrder: []bool{false},
		Commits:    3000,
		Workers:    4,
		OnError:    par.Collect,
	}
	_, err := g.RunContext(context.Background(), nil, nil)
	var es par.Errors
	if !errors.As(err, &es) {
		t.Fatalf("err = %v (%T), want par.Errors", err, err)
	}
	if got := fmt.Sprint(es.Indices()); got != "[0 1 2 3]" {
		t.Fatalf("failed cells = %s, want the whole group [0 1 2 3]", got)
	}
	for _, te := range es[1:] {
		if te.Err != es[0].Err {
			t.Errorf("cell %d failed with %v, cell %d with %v; want one batch error for the group",
				te.Index, te.Err, es[0].Index, es[0].Err)
		}
	}
}

// TestGridChaosSeesOneTaskPerGroup pins the parallel unit: one par task
// per batch group with a pending cell, dispatched in order of the group's
// first pending position, and none for a group restored whole from a
// checkpoint. smallGrid's two bench blocks are one group each; the hook
// records which cells had landed when each task started.
func TestGridChaosSeesOneTaskPerGroup(t *testing.T) {
	full := smallGrid(t)
	full.Commits = 3000
	want, err := full.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		lease    []int
		restored []int
		seen     string // task:cells landed as it started
	}{
		// ammp's cells come first in the lease, so its batch is task 0.
		{"fresh", []int{4, 5, 6, 7, 0, 1, 2, 3}, nil, "[0:[] 1:[4 5 6 7]]"},
		// gzip-graphic's group is all restored: only ammp's batch runs.
		{"resumed", []int{0, 1, 2, 3, 4, 5, 6, 7}, []int{0, 1, 2, 3, 4}, "[0:[0 1 2 3 4]]"},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := smallGrid(t)
			g.Commits = 3000
			g.Workers = 1 // the hook runs task after task
			ck := checkpoint.New[Row](filepath.Join(t.TempDir(), "grid.ckpt"), "sweep", g.Fingerprint(), g.Size())
			for _, i := range c.restored {
				if err := ck.Put(i, want[i]); err != nil {
					t.Fatal(err)
				}
			}
			var seen []string
			par.SetChaos(func(_ context.Context, index int) error {
				var landed []int
				for i := 0; i < g.Size(); i++ {
					if ck.Done(i) {
						landed = append(landed, i)
					}
				}
				seen = append(seen, fmt.Sprintf("%d:%v", index, landed))
				return nil
			})
			t.Cleanup(func() { par.SetChaos(nil) })
			rows, err := g.RunIndices(context.Background(), c.lease, ck, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(seen); got != c.seen {
				t.Fatalf("tasks started as %s, want %s", got, c.seen)
			}
			for k, i := range c.lease {
				if rows[k] != want[i] {
					t.Errorf("position %d (cell %d) = %+v, want %+v", k, i, rows[k], want[i])
				}
			}
		})
	}
}

// TestGridCollectBlamesMovedCell poisons the second batch group of one
// benchmark whose ten cells are dealt round-robin into two groups, so the
// group is cells 1, 3, 5, 7 and 9 rather than a contiguous block. The
// blame, the lost rows and the skip set must all name exactly those cells,
// and every other row must equal the uninterrupted grid's.
func TestGridCollectBlamesMovedCell(t *testing.T) {
	newGrid := func() *Grid {
		g := smallGrid(t)
		g.Benches = g.Benches[:1]
		g.IQSizes = []int{16, 32, 48, 64, 96}
		g.Commits = 3000
		return g
	}
	want, err := newGrid().Run(nil)
	if err != nil {
		t.Fatal(err)
	}

	g := newGrid()
	g.Workers = 2
	g.OnError = par.Collect
	par.SetChaos(func(_ context.Context, index int) error {
		if index == 1 {
			panic("chaos: poisoned batch")
		}
		return nil
	})
	rows, err := g.RunContext(context.Background(), nil, nil)
	par.SetChaos(nil)

	var es par.Errors
	if !errors.As(err, &es) {
		t.Fatalf("err = %v (%T), want par.Errors", err, err)
	}
	if got := fmt.Sprint(es.Indices()); got != "[1 3 5 7 9]" {
		t.Fatalf("failed cells = %s, want the second group [1 3 5 7 9]", got)
	}
	for i, r := range rows {
		if poisoned := i%2 == 1; poisoned && r != (Row{}) || !poisoned && r != want[i] {
			t.Errorf("cell %d: row %+v; only the odd cells may be lost, the rest must equal %+v", i, r, want[i])
		}
	}
}

// TestRunIndicesCollectBlamesMovedCell is the lease form of
// TestGridCollectBlamesMovedCell: the lease lists ammp's cells first, so
// ammp's batch is task 0 although ammp is the grid's second benchmark.
// Poisoning task 0 must blame exactly ammp's cells, so skip sets and job
// errors line up with the grid, and every other position's row equals the
// full grid's row for its cell.
func TestRunIndicesCollectBlamesMovedCell(t *testing.T) {
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
	lease := []int{6, 4, 1, 3, 0, 7, 2, 5}
	par.SetChaos(func(_ context.Context, index int) error {
		if index == 0 {
			panic("chaos: poisoned lease batch")
		}
		return nil
	})
	out, err := g.RunIndices(context.Background(), lease, nil, nil)
	par.SetChaos(nil)

	var es par.Errors
	if !errors.As(err, &es) {
		t.Fatalf("err = %v (%T), want par.Errors", err, err)
	}
	if got := fmt.Sprint(es.Indices()); got != "[4 5 6 7]" {
		t.Fatalf("failed cells = %s, want ammp's group [4 5 6 7]", got)
	}
	for k, r := range out {
		if lease[k] >= 4 {
			if r != (Row{}) {
				t.Errorf("poisoned position %d has a row: %+v", k, r)
			}
			continue
		}
		if r != want[lease[k]] {
			t.Errorf("position %d (cell %d) = %+v, want %+v", k, lease[k], r, want[lease[k]])
		}
	}
}

// TestRunIndicesRejectsMismatchedCheckpoint pins the size guard on the
// lease path: a checkpoint sized for another grid must be refused before
// any cell runs, exactly as RunContext refuses it.
func TestRunIndicesRejectsMismatchedCheckpoint(t *testing.T) {
	g := smallGrid(t)
	g.Commits = 3000
	ck := checkpoint.New[Row](filepath.Join(t.TempDir(), "grid.ckpt"), "sweep", g.Fingerprint(), g.Size()+1)
	ran := false
	par.SetChaos(func(context.Context, int) error { ran = true; return nil })
	t.Cleanup(func() { par.SetChaos(nil) })
	for name, run := range map[string]func() error{
		"RunIndices": func() error { _, err := g.RunIndices(context.Background(), []int{0, 1}, ck, nil); return err },
		"RunContext": func() error { _, err := g.RunContext(context.Background(), ck, nil); return err },
	} {
		if err := run(); err == nil {
			t.Errorf("%s accepted a %d-cell checkpoint for a %d-cell grid", name, ck.Total(), g.Size())
		}
	}
	if ran || ck.CountDone() != 0 {
		t.Fatal("a cell ran against a mismatched checkpoint")
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
