package checkpoint

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"softerror/internal/par"
)

// runCells is a shuffled subset of a 12-cell campaign, so positions and
// cells disagree everywhere: position 2 holds cell 7.
var runCells = []int{9, 2, 7, 0, 11, 4, 5}

const (
	runTotal    = 12
	poisonCell  = 7
	resumeKind  = "run-test"
	resumeFP    = "fp"
	valuePerRun = 10
)

// restoredCells are the cells a resumed file already holds.
var restoredCells = []int{2, 5}

// TestRunCheckpointResumeCollect drives checkpoint.Run with no file, a
// fresh file and a resumed file through success, collect failure,
// fail-fast failure and cancellation. In every case fn never sees a
// restored cell, every computed cell is on disk once Run returns, progress
// is monotonic up to the cells held, and blame names the poisoned cell,
// not its position.
func TestRunCheckpointResumeCollect(t *testing.T) {
	type outcome int
	const (
		success outcome = iota
		collect
		failFast
		cancelled
	)
	for _, file := range []string{"nil", "fresh", "resumed"} {
		for _, out := range []outcome{success, collect, failFast, cancelled} {
			name := fmt.Sprintf("%s/%s", file, [...]string{"success", "collect", "failfast", "cancel"}[out])
			t.Run(name, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "run.ckpt")
				var f *File[int]
				restored := map[int]bool{}
				switch file {
				case "fresh":
					f = New[int](path, resumeKind, resumeFP, runTotal)
				case "resumed":
					seed := New[int](path, resumeKind, resumeFP, runTotal)
					for _, c := range restoredCells {
						seed.Put(c, c*valuePerRun)
						restored[c] = true
					}
					if err := seed.Save(); err != nil {
						t.Fatal(err)
					}
					var err error
					if f, err = Load[int](path, resumeKind, resumeFP, runTotal); err != nil {
						t.Fatal(err)
					}
				}

				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				opts := par.Options{Workers: 2}
				if out == collect {
					opts.Policy = par.Collect
				}
				var (
					mu       sync.Mutex
					computed = map[int]bool{}
					dones    []int
				)
				progress := func(done, total int) {
					if total != len(runCells) {
						t.Errorf("progress total %d, want %d", total, len(runCells))
					}
					mu.Lock()
					dones = append(dones, done)
					mu.Unlock()
				}
				vals, err := Run(ctx, f, runTotal, runCells, opts, progress,
					func(ctx context.Context, cell int) (int, error) {
						if restored[cell] {
							t.Errorf("fn called for restored cell %d", cell)
						}
						if cell == poisonCell && out != success {
							if out == cancelled {
								cancel()
								return 0, ctx.Err()
							}
							return 0, fmt.Errorf("poisoned cell %d", cell)
						}
						mu.Lock()
						computed[cell] = true
						mu.Unlock()
						return cell * valuePerRun, nil
					})

				// Blame names cells, and only the poisoned one.
				var es par.Errors
				var te *par.TaskError
				switch out {
				case success:
					if err != nil {
						t.Fatalf("Run: %v", err)
					}
				case collect:
					if !errors.As(err, &es) || fmt.Sprint(es.Indices()) != fmt.Sprint([]int{poisonCell}) {
						t.Fatalf("err = %v, want par.Errors blaming cell %d", err, poisonCell)
					}
				case failFast:
					if !errors.As(err, &te) || te.Index != poisonCell {
						t.Fatalf("err = %v, want a *par.TaskError blaming cell %d", err, poisonCell)
					}
				case cancelled:
					if !errors.Is(err, context.Canceled) || errors.As(err, &te) {
						t.Fatalf("err = %v, want bare context.Canceled", err)
					}
				}
				if out == success && len(computed)+len(restored) != len(runCells) {
					t.Errorf("computed %d and restored %d of %d cells", len(computed), len(restored), len(runCells))
				}

				// Values are index-parallel to the cells.
				for k, c := range runCells {
					want := 0
					if computed[c] || restored[c] {
						want = c * valuePerRun
					}
					if vals[k] != want {
						t.Errorf("position %d (cell %d) = %d, want %d", k, c, vals[k], want)
					}
				}

				// Every computed cell is on disk, without an explicit Save.
				if f != nil {
					disk, err := Load[int](path, resumeKind, resumeFP, runTotal)
					if err != nil {
						t.Fatalf("reload: %v", err)
					}
					for c := 0; c < runTotal; c++ {
						v, ok := disk.Get(c)
						if want := computed[c] || restored[c]; ok != want || ok && v != c*valuePerRun {
							t.Errorf("cell %d on disk = %d, %v; want held=%v", c, v, ok, want)
						}
					}
				}

				// Progress: the restored cells in one call, then one step
				// per computed cell, ending at the cells held.
				held := len(computed) + len(restored)
				if len(restored) > 0 && (len(dones) == 0 || dones[0] != len(restored)) {
					t.Errorf("progress %v does not open with the %d restored cells", dones, len(restored))
				}
				for i := 1; i < len(dones); i++ {
					if dones[i] != dones[i-1]+1 {
						t.Errorf("progress %v is not a monotonic +1 sequence", dones)
						break
					}
				}
				last := 0
				if len(dones) > 0 {
					last = dones[len(dones)-1]
				}
				if last != held {
					t.Errorf("progress %v ends at %d, want %d", dones, last, held)
				}
			})
		}
	}
}

// TestRunCheckpointRejectsMismatch pins the runner's guards: a file sized
// for another campaign and a cell outside the campaign are refused before
// fn runs or the file is touched.
func TestRunCheckpointRejectsMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	fn := func(context.Context, int) (int, error) {
		t.Error("fn ran despite a rejected campaign")
		return 0, nil
	}
	f := New[int](path, resumeKind, resumeFP, runTotal+1)
	if _, err := Run(context.Background(), f, runTotal, runCells, par.Options{}, nil, fn); err == nil {
		t.Error("Run accepted a checkpoint sized for another campaign")
	}
	for _, bad := range []int{-1, runTotal} {
		if _, err := Run[int](context.Background(), nil, runTotal, []int{0, bad}, par.Options{}, nil, fn); err == nil {
			t.Errorf("Run accepted cell %d of a %d-cell campaign", bad, runTotal)
		}
	}
	if f.CountDone() != 0 {
		t.Error("a rejected run recorded cells")
	}
}

// TestRunCheckpointChaosSeesPositions pins what par sees: task indices are
// positions in cells, restored positions included, so a chaos hook written
// against positions keeps its meaning, while the blame it causes names the
// cell at that position.
func TestRunCheckpointChaosSeesPositions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	f := New[int](path, resumeKind, resumeFP, runTotal)
	f.Put(restoredCells[0], restoredCells[0]*valuePerRun)
	const poisonPos = 2
	var seen []int // one worker: the hook runs task after task
	par.SetChaos(func(_ context.Context, index int) error {
		seen = append(seen, index)
		if index == poisonPos {
			return errors.New("chaos: poisoned position")
		}
		return nil
	})
	t.Cleanup(func() { par.SetChaos(nil) })
	_, err := Run(context.Background(), f, runTotal, runCells, par.Options{Workers: 1, Policy: par.Collect}, nil,
		func(_ context.Context, cell int) (int, error) { return cell, nil })
	if want := "[0 1 2 3 4 5 6]"; fmt.Sprint(seen) != want {
		t.Fatalf("chaos saw tasks %v, want every position in ascending order %s", seen, want)
	}
	var es par.Errors
	if !errors.As(err, &es) || fmt.Sprint(es.Indices()) != fmt.Sprint([]int{runCells[poisonPos]}) {
		t.Fatalf("err = %v, want par.Errors blaming cell %d at position %d", err, runCells[poisonPos], poisonPos)
	}
}
