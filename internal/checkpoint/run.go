package checkpoint

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"softerror/internal/par"
)

// Cells is one run of the checkpoint protocol over the given cells of an
// n-cell campaign, with f (nil for none) as the campaign's checkpoint.
// Begin restores what f holds, Land records each computed value, and End
// saves f and returns the values, index-parallel to cells: position k is
// cell cells[k]. Every cell runner (Run, the fleet coordinator's lease
// waves) drives its cells through one Cells, so restore, write-back,
// progress, save and blame behave the same wherever cells run.
type Cells[T any] struct {
	f        *File[T]
	cells    []int
	out      []T
	restored []bool
	progress func(done, total int)

	mu   sync.Mutex
	done int
}

// Begin starts a run. A file whose Total is not n, or a cell outside
// [0, n), is rejected before anything runs. Cells recorded in f are
// restored, and progress, when non-nil, is called once with the restored
// count (if any).
func Begin[T any](f *File[T], n int, cells []int, progress func(done, total int)) (*Cells[T], error) {
	if f != nil && f.Total() != n {
		return nil, fmt.Errorf("checkpoint: %s has %d cells, campaign has %d", f.Path(), f.Total(), n)
	}
	for _, c := range cells {
		if c < 0 || c >= n {
			return nil, fmt.Errorf("checkpoint: cell %d outside campaign of %d cells", c, n)
		}
	}
	r := &Cells[T]{f: f, cells: cells, out: make([]T, len(cells)), restored: make([]bool, len(cells)), progress: progress}
	for k, c := range cells {
		if v, ok := f.Get(c); ok {
			r.out[k], r.restored[k] = v, true
			r.done++
		}
	}
	if progress != nil && r.done > 0 {
		progress(r.done, len(cells))
	}
	return r, nil
}

// Restored reports whether position k was restored by Begin; such a
// position needs no computing and must not be landed.
func (r *Cells[T]) Restored(k int) bool { return r.restored[k] }

// Land records position k's computed value: it is Put to the file and
// progress is called with the next done count. Safe for concurrent use on
// distinct positions; the count advances under a lock, so callers observe
// a strictly increasing sequence that reaches len(cells) once every
// position is held.
func (r *Cells[T]) Land(k int, v T) error {
	r.out[k] = v
	if err := r.f.Put(r.cells[k], v); err != nil {
		return err
	}
	if r.progress != nil {
		r.mu.Lock()
		r.done++
		r.progress(r.done, len(r.cells))
		r.mu.Unlock()
	}
	return nil
}

// End finishes the run with err, the error that stopped it (nil for
// none): the file is saved, so an interrupted campaign loses nothing that
// already landed, and the values come back with the error. A par.Errors or
// *par.TaskError in err speaks positions; End rewrites its indices to
// cells, sorting the par.Errors by cell.
func (r *Cells[T]) End(err error) ([]T, error) {
	if serr := r.f.Save(); err == nil {
		err = serr
	}
	switch e := err.(type) {
	case par.Errors:
		for _, te := range e {
			te.Index = r.cells[te.Index]
		}
		sort.Slice(e, func(a, b int) bool { return e[a].Index < e[b].Index })
	case *par.TaskError:
		e.Index = r.cells[e.Index]
	}
	return r.out, err
}

// Run is the one cell runner behind every resumable campaign: it runs fn
// over the given cells of an n-cell campaign on the par worker pool,
// through Begin, Land and End, with f (nil for none) as the campaign's
// checkpoint. fn is never called for a restored cell. progress reaches
// len(cells) on success.
//
// Par task indices are positions in cells, restored positions included
// (they return at once), so opts.Order, the chaos hook and fail-fast
// cancellation all speak positions. The error does not: on failure Run
// returns the partial values with a par.Errors or *par.TaskError whose
// indices name cells, the par.Errors sorted by cell.
func Run[T any](ctx context.Context, f *File[T], n int, cells []int, opts par.Options, progress func(done, total int), fn func(ctx context.Context, cell int) (T, error)) ([]T, error) {
	r, err := Begin(f, n, cells, progress)
	if err != nil {
		return nil, err
	}
	return r.End(par.Run(ctx, len(cells), opts, func(ctx context.Context, k int) error {
		if r.restored[k] {
			return nil
		}
		v, err := fn(ctx, cells[k])
		if err != nil {
			return err
		}
		return r.Land(k, v)
	}))
}
