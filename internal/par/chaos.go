package par

import (
	"context"
	"sync/atomic"
)

// ChaosFunc is a test-only fault injector. When installed, the engine calls
// it at the start of every task, inside the panic-isolation scope, so a
// hook can simulate a worker failure: panic (the engine must convert it to
// a TaskError) or return an error (the engine must fail exactly that
// index). Returning nil lets the real task run.
type ChaosFunc func(ctx context.Context, index int) error

// chaosBox wraps the hook so atomic.Value can hold a nil function.
type chaosBox struct{ h ChaosFunc }

var chaosHook atomic.Value

// SetChaos installs (or, with nil, clears) the chaos hook. It exists for
// resilience tests only — production drivers must never set it. Tests should
// clear it via t.Cleanup(func() { par.SetChaos(nil) }).
func SetChaos(h ChaosFunc) { chaosHook.Store(chaosBox{h: h}) }

// chaos returns the installed hook, or nil.
func chaos() ChaosFunc {
	if b, ok := chaosHook.Load().(chaosBox); ok {
		return b.h
	}
	return nil
}
