package par

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// Policy selects how the engine reacts to a task that fails after all of its
// attempts.
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

// TaskError describes the failure of one task index after its attempts were
// exhausted. It is the unit entry of Errors and the FailFast return value.
type TaskError struct {
	// Index is the failed task's index in [0, n).
	Index int
	// Attempts is how many times the task was tried.
	Attempts int
	// Err is the final attempt's failure.
	Err error
	// Stack is the goroutine stack captured at the panic site, when the
	// final attempt panicked; nil for ordinary errors.
	Stack []byte
}

func (e *TaskError) Error() string {
	kind := "failed"
	if e.Stack != nil {
		kind = "panicked"
	}
	return fmt.Sprintf("par: task %d %s after %d attempt(s): %v", e.Index, kind, e.Attempts, e.Err)
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

// ErrHung marks a task attempt stopped by the per-task watchdog: either it
// returned the deadline error cooperatively, or it ignored cancellation past
// the grace period and its goroutine was abandoned.
var ErrHung = errors.New("par: task deadline exceeded")

// panicErr carries a recovered panic value and stack out of a task attempt.
type panicErr struct {
	val   any
	stack []byte
}

func (p *panicErr) Error() string { return fmt.Sprintf("panic: %v", p.val) }

// Options configures a resilient Run.
type Options struct {
	// Workers bounds the pool; <= 0 resolves through the package default.
	Workers int
	// Policy is the failure policy (FailFast by default).
	Policy Policy
	// Timeout is the per-attempt watchdog deadline; 0 disables it. A firing
	// watchdog cancels the attempt's context, so tasks that check their
	// context abort within one simulation.
	Timeout time.Duration
	// Grace is how long after cancelling a timed-out attempt the engine
	// waits for it to unwind before abandoning its goroutine (default 1s).
	// An abandoned attempt is reported as hung; its index is treated as
	// failed even if the stray goroutine eventually finishes.
	Grace time.Duration
	// Retries is how many extra attempts a failed or hung index gets. Tasks
	// must be index-deterministic (derive any randomness from the index, not
	// from shared mutable state) so that a retried cell is byte-identical to
	// a first-try cell.
	Retries int
	// Order is the dispatch order: workers claim Order[0], Order[1], ...
	// instead of ascending indices. nil means ascending. It must be a
	// permutation of [0, n). Order changes only which task starts when
	// (and so which running tasks a FailFast failure cancels): fn, the
	// chaos hook, TaskError.Index and Errors all see the task index
	// itself, never its dispatch slot.
	Order []int
}

// defaultGrace bounds the post-cancellation wait for a hung attempt.
const defaultGrace = time.Second

// Run executes fn over [0, n) on a bounded worker pool with panic isolation,
// an optional per-attempt watchdog, and deterministic retries. A recovered
// panic becomes a TaskError carrying the index and stack instead of a
// process crash.
//
// Under FailFast the first task to exhaust its attempts stops dispatch and
// cancels every running task dispatched after it; tasks dispatched before
// it run on. So a fail-fast run still finishes every task that a one-worker
// run in the same dispatch order would have finished before the failure,
// whatever the worker count. The failure at the earliest dispatch slot is
// returned. Under Collect every index is attempted and the failures come
// back as an Errors value (nil error if all succeeded). External
// cancellation always wins: Run returns ctx's error and records no blame
// against in-flight tasks. A malformed Options.Order is rejected before any
// task runs.
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
				runIndex(tctx, i, opts, fn, func(te *TaskError) { record(slot, te) })
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

// runIndex drives one index through its attempt budget and records the
// failure, if any, once the budget is spent.
func runIndex(ctx context.Context, i int, opts Options, fn func(context.Context, int) error, record func(*TaskError)) {
	attempts := opts.Retries + 1
	var last error
	for a := 1; a <= attempts; a++ {
		err := runAttempt(ctx, i, a, opts, fn)
		if err == nil {
			return
		}
		if ctx.Err() != nil {
			// The campaign itself ended (external cancellation or another
			// worker's fail-fast); this index carries no blame.
			return
		}
		last = err
	}
	te := &TaskError{Index: i, Attempts: attempts, Err: last}
	var pe *panicErr
	if errors.As(last, &pe) {
		te.Stack = pe.stack
	}
	record(te)
}

// runAttempt executes one attempt of fn(i) with panic recovery, the chaos
// hook, and — when a timeout is set — watchdog supervision from a separate
// goroutine.
func runAttempt(ctx context.Context, i, attempt int, opts Options, fn func(context.Context, int) error) error {
	actx := ctx
	cancel := context.CancelFunc(func() {})
	if opts.Timeout > 0 {
		actx, cancel = context.WithTimeout(ctx, opts.Timeout)
	}
	defer cancel()

	call := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &panicErr{val: r, stack: debug.Stack()}
			}
		}()
		if h := chaos(); h != nil {
			if err := h(actx, i, attempt); err != nil {
				return err
			}
		}
		return fn(actx, i)
	}

	var err error
	if opts.Timeout <= 0 {
		err = call()
	} else {
		done := make(chan error, 1)
		go func() { done <- call() }()
		select {
		case err = <-done:
		case <-actx.Done():
			// Watchdog fired (or the campaign was cancelled). The attempt's
			// context is cancelled; give a cooperative task a grace period
			// to unwind before abandoning its goroutine.
			grace := opts.Grace
			if grace <= 0 {
				grace = defaultGrace
			}
			timer := time.NewTimer(grace)
			select {
			case err = <-done:
				timer.Stop()
			case <-timer.C:
				return fmt.Errorf("%w: index %d unresponsive %v after cancellation, goroutine abandoned",
					ErrHung, i, grace)
			}
		}
	}
	if err != nil && ctx.Err() == nil && actx.Err() == context.DeadlineExceeded {
		// The attempt's own watchdog, not campaign-level cancellation.
		err = fmt.Errorf("%w (%v): %v", ErrHung, opts.Timeout, err)
	}
	return err
}
