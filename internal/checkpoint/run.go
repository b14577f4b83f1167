package checkpoint

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"softerror/internal/par"
)

// Run is the one cell runner behind every resumable campaign: it runs fn
// over the given cells of an n-cell campaign on the par worker pool, with f
// (nil for none) as the campaign's checkpoint. The result is
// index-parallel to cells: out[k] is cell cells[k].
//
// Run owns the whole checkpoint protocol. A file whose Total is not n, or
// a cell outside [0, n), is rejected before anything runs. Cells recorded
// in f are restored without calling fn; each computed value is Put as it
// lands, and f is saved on every exit, so an interrupted campaign loses
// nothing that already ran. progress, when non-nil, is called once with the
// restored count (if any), then after each computed cell with a strictly
// increasing done count that reaches len(cells) on success.
//
// Par task indices are positions in cells, restored positions included
// (they return at once), so opts.Order, the chaos hook and fail-fast
// cancellation all speak positions. The error does not: on failure Run
// returns the partial values with a par.Errors or *par.TaskError whose
// indices name cells, the par.Errors sorted by cell.
func Run[T any](ctx context.Context, f *File[T], n int, cells []int, opts par.Options, progress func(done, total int), fn func(ctx context.Context, cell int) (T, error)) ([]T, error) {
	if f != nil && f.Total() != n {
		return nil, fmt.Errorf("checkpoint: %s has %d cells, campaign has %d", f.Path(), f.Total(), n)
	}
	for _, c := range cells {
		if c < 0 || c >= n {
			return nil, fmt.Errorf("checkpoint: cell %d outside campaign of %d cells", c, n)
		}
	}
	out := make([]T, len(cells))
	restored := make([]bool, len(cells))
	done := 0
	for k, c := range cells {
		if v, ok := f.Get(c); ok {
			out[k], restored[k] = v, true
			done++
		}
	}
	if progress != nil && done > 0 {
		progress(done, len(cells))
	}
	var mu sync.Mutex
	err := par.Run(ctx, len(cells), opts, func(ctx context.Context, k int) error {
		if restored[k] {
			return nil
		}
		v, err := fn(ctx, cells[k])
		if err != nil {
			return err
		}
		out[k] = v
		if err := f.Put(cells[k], v); err != nil {
			return err
		}
		if progress != nil {
			// Cells finish in scheduling order, but the count advances
			// under the lock, so callers observe a monotonic sequence.
			mu.Lock()
			done++
			progress(done, len(cells))
			mu.Unlock()
		}
		return nil
	})
	if serr := f.Save(); err == nil {
		err = serr
	}
	switch e := err.(type) {
	case par.Errors:
		for _, te := range e {
			te.Index = cells[te.Index]
		}
		sort.Slice(e, func(a, b int) bool { return e[a].Index < e[b].Index })
	case *par.TaskError:
		e.Index = cells[e.Index]
	}
	return out, err
}
