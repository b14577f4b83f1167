package par

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestCollectIsolatesPanic(t *testing.T) {
	const n = 16
	var done [n]atomic.Bool
	err := Run(context.Background(), n, Options{Workers: 4, Policy: Collect},
		func(_ context.Context, i int) error {
			if i == 5 {
				panic("poisoned cell")
			}
			done[i].Store(true)
			return nil
		})
	var es Errors
	if !errors.As(err, &es) {
		t.Fatalf("err = %v (%T), want Errors", err, err)
	}
	if len(es) != 1 || es[0].Index != 5 {
		t.Fatalf("failures = %v, want exactly index 5", es.Indices())
	}
	te := es[0]
	if te.Stack == nil {
		t.Error("TaskError.Stack is nil for a panic")
	}
	if !strings.Contains(te.Error(), "panicked") || !strings.Contains(te.Error(), "poisoned cell") {
		t.Errorf("TaskError message %q lacks panic details", te)
	}
	for i := 0; i < n; i++ {
		if i != 5 && !done[i].Load() {
			t.Errorf("index %d did not complete; a panic must cost only its own cell", i)
		}
	}
}

func TestFailFastReturnsTaskError(t *testing.T) {
	err := Run(context.Background(), 64, Options{Workers: 2, Policy: FailFast},
		func(_ context.Context, i int) error {
			if i == 3 {
				return fmt.Errorf("boom")
			}
			return nil
		})
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v (%T), want *TaskError", err, err)
	}
	if te.Index != 3 {
		t.Errorf("TaskError = %+v, want index 3", te)
	}
	if te.Stack != nil {
		t.Error("plain error grew a stack")
	}
}

func TestExternalCancelCarriesNoBlame(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	err := Run(ctx, 8, Options{Workers: 1, Policy: Collect},
		func(ctx context.Context, i int) error {
			select {
			case started <- struct{}{}:
				cancel()
			default:
			}
			<-ctx.Done()
			return ctx.Err()
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled, not task blame", err)
	}
}

// TestChaosHookFailsItsIndex pins that a chaos-returned error fails exactly
// its own index under Collect: the task body is skipped for that index, and
// every other index runs once.
func TestChaosHookFailsItsIndex(t *testing.T) {
	injected := errors.New("chaos: injected fault")
	SetChaos(func(_ context.Context, index int) error {
		if index == 2 {
			return injected
		}
		return nil
	})
	t.Cleanup(func() { SetChaos(nil) })
	var ran [6]atomic.Int32
	err := Run(context.Background(), len(ran), Options{Workers: 3, Policy: Collect},
		func(_ context.Context, i int) error { ran[i].Add(1); return nil })
	var es Errors
	if !errors.As(err, &es) || len(es) != 1 || es[0].Index != 2 || es[0].Err != injected {
		t.Fatalf("err = %v, want Errors{index 2: the injected error}", err)
	}
	if es[0].Stack != nil {
		t.Error("a returned chaos error grew a stack")
	}
	for i := range ran {
		want := int32(1)
		if i == 2 {
			want = 0
		}
		if got := ran[i].Load(); got != want {
			t.Errorf("index %d ran %d times, want %d", i, got, want)
		}
	}
}
func TestChaosHookCanPanic(t *testing.T) {
	SetChaos(func(_ context.Context, index int) error {
		if index == 0 {
			panic("chaos panic")
		}
		return nil
	})
	t.Cleanup(func() { SetChaos(nil) })
	err := Run(context.Background(), 2, Options{Policy: Collect},
		func(_ context.Context, i int) error { return nil })
	var es Errors
	if !errors.As(err, &es) || len(es) != 1 || es[0].Index != 0 || es[0].Stack == nil {
		t.Fatalf("err = %v, want Errors{index 0 with stack}", err)
	}
}

func TestRunEmptyAndNil(t *testing.T) {
	if err := Run(context.Background(), 0, Options{}, nil); err != nil {
		t.Fatalf("n=0 Run errored: %v", err)
	}
}

// TestFailFastFinishesEarlierSlots pins fail-fast's cancellation boundary:
// a failure cancels only the tasks with a higher index. Task 0 is still
// running when task 1 fails; it must finish on a live context while task 2
// is cancelled and task 3 never starts.
func TestFailFastFinishesEarlierSlots(t *testing.T) {
	boom := errors.New("boom")
	started2 := make(chan struct{})
	cancelled2 := make(chan struct{})
	var ran3, finished0 atomic.Bool
	wait := func(ch <-chan struct{}, what string) {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Errorf("timed out waiting for %s", what)
		}
	}
	err := Run(context.Background(), 4, Options{Workers: 3},
		func(ctx context.Context, i int) error {
			switch i {
			case 0:
				wait(cancelled2, "task 2's cancellation")
				if ctx.Err() != nil {
					t.Errorf("task 0, below the failed index, was cancelled: %v", ctx.Err())
				}
				finished0.Store(true)
			case 1:
				wait(started2, "task 2 to start")
				return boom
			case 2:
				close(started2)
				wait(ctx.Done(), "task 1's failure to cancel task 2")
				close(cancelled2)
				return ctx.Err()
			case 3:
				ran3.Store(true)
			}
			return nil
		})
	var te *TaskError
	if !errors.As(err, &te) || te.Index != 1 || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want task 1's failure", err)
	}
	if !finished0.Load() {
		t.Error("task 0 did not finish")
	}
	if ran3.Load() {
		t.Error("task 3 started after the failure")
	}
}

func TestParsePolicy(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Policy
		ok   bool
	}{
		{"", FailFast, true},
		{"fail", FailFast, true},
		{"fail-fast", FailFast, true},
		{"continue", Collect, true},
		{"collect", 0, false},
		{"Fail", 0, false},
		{" continue", 0, false},
	} {
		got, err := ParsePolicy(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}
