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

func TestOrderDispatchesInGivenSequence(t *testing.T) {
	order := []int{3, 0, 4, 1, 2}
	var seen []int // Workers: 1 runs tasks one after another
	err := Run(context.Background(), len(order), Options{Workers: 1, Order: order},
		func(_ context.Context, i int) error {
			seen = append(seen, i)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(seen) != fmt.Sprint(order) {
		t.Fatalf("fn saw %v, want the dispatch order %v", seen, order)
	}
}

// TestOrderCollectBlamesTaskIndex pins that a dispatch order moves only
// when a task starts: under a reversed order the chaos hook and the
// Errors still name task indices, not dispatch slots.
func TestOrderCollectBlamesTaskIndex(t *testing.T) {
	const n = 6
	order := make([]int, n)
	for slot := range order {
		order[slot] = n - 1 - slot
	}
	var hooked []int
	SetChaos(func(_ context.Context, index int) error {
		hooked = append(hooked, index)
		if index == 1 {
			panic("chaos: poisoned task")
		}
		return nil
	})
	t.Cleanup(func() { SetChaos(nil) })
	err := Run(context.Background(), n, Options{Workers: 1, Policy: Collect, Order: order},
		func(_ context.Context, i int) error {
			if i == 4 {
				return fmt.Errorf("task %d fails", i)
			}
			return nil
		})
	if fmt.Sprint(hooked) != fmt.Sprint(order) {
		t.Errorf("chaos hook saw %v, want task indices in dispatch order %v", hooked, order)
	}
	var es Errors
	if !errors.As(err, &es) {
		t.Fatalf("err = %v (%T), want Errors", err, err)
	}
	if got := fmt.Sprint(es.Indices()); got != "[1 4]" {
		t.Fatalf("failed indices = %s, want [1 4] (task indices, not slots 4 and 1)", got)
	}
}

func TestOrderRejectsNonPermutation(t *testing.T) {
	for name, order := range map[string][]int{
		"duplicate":    {0, 1, 1, 3},
		"out-of-range": {0, 1, 2, 4},
		"negative":     {0, -1, 2, 3},
		"short":        {0, 1, 2},
		"long":         {0, 1, 2, 3, 4},
	} {
		var ran atomic.Int64
		err := Run(context.Background(), 4, Options{Workers: 2, Order: order},
			func(_ context.Context, i int) error { ran.Add(1); return nil })
		if err == nil {
			t.Errorf("%s order %v accepted", name, order)
		}
		if got := ran.Load(); got != 0 {
			t.Errorf("%s order %v ran %d tasks before rejection, want 0", name, order, got)
		}
	}
	if err := Run(context.Background(), 0, Options{Order: []int{0}}, nil); err == nil {
		t.Error("order of 1 entry accepted for 0 tasks")
	}
}

// TestFailFastFinishesEarlierSlots pins fail-fast under a dispatch order: a
// failure cancels only the tasks dispatched after it. Task 2 (slot 0) is
// still running when task 0 (slot 1) fails; it must finish on a live
// context while task 1 (slot 2) is cancelled and task 3 never starts.
func TestFailFastFinishesEarlierSlots(t *testing.T) {
	boom := errors.New("boom")
	started1 := make(chan struct{})
	cancelled1 := make(chan struct{})
	var ran3, finished2 atomic.Bool
	wait := func(ch <-chan struct{}, what string) {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Errorf("timed out waiting for %s", what)
		}
	}
	err := Run(context.Background(), 4, Options{Workers: 3, Order: []int{2, 0, 1, 3}},
		func(ctx context.Context, i int) error {
			switch i {
			case 0:
				wait(started1, "task 1 to start")
				return boom
			case 1:
				close(started1)
				wait(ctx.Done(), "task 0's failure to cancel task 1")
				close(cancelled1)
				return ctx.Err()
			case 2:
				wait(cancelled1, "task 1's cancellation")
				if ctx.Err() != nil {
					t.Errorf("task 2, dispatched before the failure, was cancelled: %v", ctx.Err())
				}
				finished2.Store(true)
			case 3:
				ran3.Store(true)
			}
			return nil
		})
	var te *TaskError
	if !errors.As(err, &te) || te.Index != 0 || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want task 0's failure", err)
	}
	if !finished2.Load() {
		t.Error("task 2 did not finish")
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
