package fleet

import (
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// FaultKind enumerates the HTTP-level failures the chaos injector can
// impose on a worker — the wire analogues of the three classic task
// failures par.SetChaos injects in-process (panic, hang, transient error),
// plus the degraded-but-alive case:
//
//   - FaultCrash: the connection is torn down mid-response, as a killed
//     worker process would — the coordinator sees a transport error;
//   - FaultHang: the handler blocks until the client gives up — the
//     per-lease timeout must expire the lease and reassign it;
//   - FaultError: a clean 500 — the lease must move to another worker;
//   - FaultSlow: the response is delayed by Delay — stragglers must not
//     change bytes, only wall-clock (free workers take the next leases).
type FaultKind uint8

const (
	// FaultNone lets the request through untouched.
	FaultNone FaultKind = iota
	// FaultCrash aborts the connection without a response.
	FaultCrash
	// FaultHang blocks until the client disconnects.
	FaultHang
	// FaultError answers 500 without running the handler.
	FaultError
	// FaultSlow delays the handler by Delay, then proceeds.
	FaultSlow
)

// Fault is one chaos decision.
type Fault struct {
	Kind  FaultKind
	Delay time.Duration // FaultSlow only
}

// ChaosFunc decides the fault for one incoming request on one worker. It
// runs on the worker's serving path, so it must be safe for concurrent use.
type ChaosFunc func(worker string, r *http.Request) Fault

// chaosBox wraps the hook so atomic.Value can hold a nil function.
type chaosBox struct{ h ChaosFunc }

var chaosHook atomic.Value

// SetChaos installs (or, with nil, clears) the process-global chaos hook
// consulted by ChaosMiddleware instances built without an explicit hook. It
// exists for resilience tests only — production daemons must never set it.
// Tests should clear it via t.Cleanup(func() { fleet.SetChaos(nil) }).
func SetChaos(h ChaosFunc) { chaosHook.Store(chaosBox{h: h}) }

// globalChaos returns the installed global hook, or nil.
func globalChaos() ChaosFunc {
	if b, ok := chaosHook.Load().(chaosBox); ok {
		return b.h
	}
	return nil
}

// ChaosMiddleware wraps a worker's handler with the HTTP-level fault
// injector. fn decides per-request faults; a nil fn consults the
// process-global SetChaos hook (so a real daemon wired through the
// middleware can be chaos-driven from a test). worker names this instance
// in fault decisions — invariant checks give each in-process worker its own
// identity and its own deterministic fault plan.
func ChaosMiddleware(worker string, fn ChaosFunc, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hook := fn
		if hook == nil {
			hook = globalChaos()
		}
		if hook != nil {
			switch f := hook(worker, r); f.Kind {
			case FaultCrash:
				// net/http aborts the connection and suppresses the stack
				// trace for exactly this sentinel.
				panic(http.ErrAbortHandler)
			case FaultHang:
				// Block until the client disconnects; the coordinator's
				// lease timeout is what cuts this. The server only watches
				// for the disconnect once the request body is consumed, so
				// drain it first — otherwise the context never fires and
				// the hang outlives the client forever.
				io.Copy(io.Discard, r.Body)
				<-r.Context().Done()
				panic(http.ErrAbortHandler)
			case FaultError:
				http.Error(w, "chaos: injected failure", http.StatusInternalServerError)
				return
			case FaultSlow:
				select {
				case <-time.After(f.Delay):
				case <-r.Context().Done():
					panic(http.ErrAbortHandler)
				}
			}
		}
		next.ServeHTTP(w, r)
	})
}
