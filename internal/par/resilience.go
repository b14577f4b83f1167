package par

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
)

// Policy selects how the engine reacts to a failed task.
type Policy uint8

const (
	// FailFast stops the campaign on the first task failure — the right
	// posture for correctness gates, where any failed cell invalidates the
	// artefact. Tasks dispatched after the failed one are cancelled; tasks
	// dispatched before it finish (see Run).
	FailFast Policy = iota
	// Collect isolates failures: the campaign finishes every other index and
	// Run returns an Errors list describing the poisoned cells. Long
	// campaigns lose one cell to a panic instead of hours of work.
	Collect
)

// ParsePolicy maps a failed-cell policy name, as cmd/sweep's -onerror flag
// and the server's sweep requests spell it, to a Policy: "fail",
// "fail-fast" or "" mean FailFast, "continue" means Collect.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "fail", "fail-fast":
		return FailFast, nil
	case "continue":
		return Collect, nil
	}
	return 0, fmt.Errorf("unknown onerror policy %q (known: fail, fail-fast, continue)", s)
}

// TaskError describes the failure of one task index. It is the unit entry
// of Errors and the FailFast return value.
type TaskError struct {
	// Index is the failed task's index in [0, n).
	Index int
	// Err is the task's failure.
	Err error
	// Stack is the goroutine stack captured at the panic site, when the
	// task panicked; nil for ordinary errors.
	Stack []byte
}

func (e *TaskError) Error() string {
	kind := "failed"
	if e.Stack != nil {
		kind = "panicked"
	}
	return fmt.Sprintf("par: task %d %s: %v", e.Index, kind, e.Err)
}

func (e *TaskError) Unwrap() error { return e.Err }

// Errors is the full failure set of a Collect campaign, sorted by index.
type Errors []*TaskError

func (es Errors) Error() string {
	if len(es) == 1 {
		return es[0].Error()
	}
	return fmt.Sprintf("par: %d tasks failed; first: %v", len(es), es[0])
}

// Indices returns the failed task indices in ascending order.
func (es Errors) Indices() []int {
	idx := make([]int, len(es))
	for i, e := range es {
		idx[i] = e.Index
	}
	return idx
}

// panicErr carries a recovered panic value and stack out of a task.
type panicErr struct {
	val   any
	stack []byte
}

func (p *panicErr) Error() string { return fmt.Sprintf("panic: %v", p.val) }

// Options configures a Run.
type Options struct {
	// Workers bounds the pool; <= 0 resolves through the package default.
	Workers int
	// Policy is the failure policy (FailFast by default).
	Policy Policy
	// Order is the dispatch order: workers claim Order[0], Order[1], ...
	// instead of ascending indices. nil means ascending. It must be a
	// permutation of [0, n). Order changes only which task starts when
	// (and so which running tasks a FailFast failure cancels): fn, the
	// chaos hook, TaskError.Index and Errors all see the task index
	// itself, never its dispatch slot.
	Order []int
}

// Run executes fn over [0, n) on a bounded worker pool, once per index,
// with panic isolation: a recovered panic becomes a TaskError carrying the
// index and stack instead of a process crash. Tasks are deterministic by
// index, so a failed task is not re-run; a stuck simulation is stopped by
// the pipeline's forward-progress watchdog, which panics.
//
// Under FailFast the first task to fail stops dispatch and cancels every
// running task dispatched after it; tasks dispatched before it run on. So a
// fail-fast run still finishes every task that a one-worker run in the same
// dispatch order would have finished before the failure, whatever the
// worker count. The failure at the earliest dispatch slot is returned.
// Under Collect every index is run and the failures come back as an Errors
// value (nil error if all succeeded). External cancellation always wins:
// Run returns ctx's error and records no blame against in-flight tasks. A
// malformed Options.Order is rejected before any task runs.
func Run(ctx context.Context, n int, opts Options, fn func(ctx context.Context, i int) error) error {
	if err := checkOrder(opts.Order, n); err != nil {
		return err
	}
	if n <= 0 {
		return ctx.Err()
	}
	workers := Workers(opts.Workers)
	if workers > n {
		workers = n
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		next     int                             // next dispatch slot
		cancels  = make([]context.CancelFunc, n) // by dispatch slot, while running
		failures Errors
		first    *TaskError
		firstAt  = n // dispatch slot of first
	)
	// claim hands out the next dispatch slot and a context of the slot's
	// own, unless dispatch is over.
	claim := func() (int, context.Context, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= n || first != nil || ctx.Err() != nil {
			return 0, nil, false
		}
		slot := next
		next++
		tctx, cancel := context.WithCancel(ctx)
		cancels[slot] = cancel
		return slot, tctx, true
	}
	release := func(slot int) {
		mu.Lock()
		defer mu.Unlock()
		cancels[slot]()
		cancels[slot] = nil
	}
	record := func(slot int, te *TaskError) {
		mu.Lock()
		defer mu.Unlock()
		if opts.Policy != FailFast {
			failures = append(failures, te)
			return
		}
		if slot < firstAt {
			first, firstAt = te, slot
			for _, cancel := range cancels[slot+1 : next] {
				if cancel != nil {
					cancel()
				}
			}
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				slot, tctx, ok := claim()
				if !ok {
					return
				}
				i := slot
				if opts.Order != nil {
					i = opts.Order[slot]
				}
				runIndex(tctx, i, fn, func(te *TaskError) { record(slot, te) })
				release(slot)
			}
		}()
	}
	wg.Wait()

	if opts.Policy == FailFast {
		if first != nil {
			return first
		}
		return ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(failures) > 0 {
		sort.Slice(failures, func(a, b int) bool { return failures[a].Index < failures[b].Index })
		return failures
	}
	return nil
}

// checkOrder rejects a dispatch order that is not a permutation of [0, n).
func checkOrder(order []int, n int) error {
	if order == nil {
		return nil
	}
	if len(order) != n {
		return fmt.Errorf("par: dispatch order has %d entries for %d tasks", len(order), n)
	}
	seen := make([]bool, n)
	for slot, i := range order {
		if i < 0 || i >= n {
			return fmt.Errorf("par: dispatch order slot %d names task %d outside [0, %d)", slot, i, n)
		}
		if seen[i] {
			return fmt.Errorf("par: dispatch order names task %d twice", i)
		}
		seen[i] = true
	}
	return nil
}

// runIndex runs fn(i) once, with panic recovery and the chaos hook, and
// records its failure, if any.
func runIndex(ctx context.Context, i int, fn func(context.Context, int) error, record func(*TaskError)) {
	err := call(ctx, i, fn)
	if err == nil || ctx.Err() != nil {
		// Success, or the campaign itself ended (external cancellation or
		// another task's fail-fast): this index carries no blame.
		return
	}
	te := &TaskError{Index: i, Err: err}
	var pe *panicErr
	if errors.As(err, &pe) {
		te.Stack = pe.stack
	}
	record(te)
}

// call is fn(ctx, i) preceded by the chaos hook, with a panic recovered
// into a panicErr.
func call(ctx context.Context, i int, fn func(context.Context, int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicErr{val: r, stack: debug.Stack()}
		}
	}()
	if h := chaos(); h != nil {
		if err := h(ctx, i); err != nil {
			return err
		}
	}
	return fn(ctx, i)
}
