package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(7); got != 7 {
		t.Fatalf("Workers(7) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	SetDefault(3)
	defer SetDefault(0)
	if got := Workers(0); got != 3 {
		t.Fatalf("Workers(0) after SetDefault(3) = %d", got)
	}
	if got := Workers(5); got != 5 {
		t.Fatalf("explicit count must beat default: Workers(5) = %d", got)
	}
}

func TestMapOrderIndependentOfWorkers(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		got, err := Map(context.Background(), 100, workers, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	var hits [500]atomic.Int32
	err := ForEach(context.Background(), len(hits), 16, func(_ context.Context, i int) error {
		hits[i].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if n := hits[i].Load(); n != 1 {
			t.Fatalf("index %d executed %d times", i, n)
		}
	}
}

// TestFirstErrorCancels pins fail-fast: index 5's error cancels the pool
// and no index is claimed after it. Every later index blocks until that
// cancellation reaches it, so the outcome cannot depend on how fast the
// other workers would otherwise drain no-op indices.
func TestFirstErrorCancels(t *testing.T) {
	const workers = 4
	boom := errors.New("boom")
	var ran atomic.Int64
	err := ForEach(context.Background(), 10_000, workers, func(ctx context.Context, i int) error {
		ran.Add(1)
		switch {
		case i == 5:
			return boom
		case i > 5:
			select {
			case <-ctx.Done():
			case <-time.After(10 * time.Second):
				t.Errorf("index %d: the failure never cancelled the pool", i)
			}
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// Indices 0..5, plus at most one blocked index per other worker.
	if n := ran.Load(); n > 6+workers-1 {
		t.Fatalf("error did not stop the pool: %d indices ran", n)
	}
}

func TestMapDiscardsOnError(t *testing.T) {
	out, err := Map(context.Background(), 8, 2, func(_ context.Context, i int) (string, error) {
		if i == 3 {
			return "", fmt.Errorf("cell %d failed", i)
		}
		return "ok", nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if out != nil {
		t.Fatalf("partial results leaked: %v", out)
	}
}

func TestExternalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ForEach(ctx, 100, 4, func(_ context.Context, i int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestZeroItems(t *testing.T) {
	if err := ForEach(context.Background(), 0, 4, nil); err != nil {
		t.Fatal(err)
	}
	out, err := Map(context.Background(), 0, 4, func(_ context.Context, i int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("Map over empty space: out=%v err=%v", out, err)
	}
}
