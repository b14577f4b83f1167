// Command seratd serves the repository's AVF-evaluation engine over HTTP:
// single evaluations with a content-addressed result cache, sweep-grid
// jobs with admission control and live progress streaming, analytic AVF
// upper bounds (GET /v1/bound — served from the cache without simulating
// a single cycle or consuming an eval slot), and expvar-backed metrics.
//
//	seratd -addr :8080
//	curl -d '{"experiment":"table1","benches":"gzip" ...}' localhost:8080/v1/eval
//	curl 'localhost:8080/v1/bound?bench=gzip&iqsize=32&ooo=true'
//
// Fleet mode turns several daemons into one sharded sweep engine. A
// coordinator cuts sweep jobs into leases of consecutive grid cells on one
// shared queue, and each free worker daemon takes the next; workers are
// plain daemons that joined the fleet:
//
//	seratd -coordinator -addr :8080 -workers 127.0.0.1:8081,127.0.0.1:8082
//	seratd -addr :8081 -join 127.0.0.1:8080   # or register explicitly
//
// Worker failures are absorbed: a lease whose delivery fails goes back on
// the queue for the surviving workers, and the failed worker sits out
// until a heartbeat re-admits it; with no healthy worker the coordinator
// degrades to local execution. The answer bytes are identical either way.
//
// On SIGINT/SIGTERM the daemon drains: new work is rejected, accepted
// jobs finish (or, with -checkpoint set, are interrupted and
// checkpointed), then the process exits. No accepted job is dropped.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime/debug"
	"strings"
	"time"

	"softerror/internal/cli"
	"softerror/internal/fleet"
	"softerror/internal/server"
)

func main() { cli.Main("seratd", run) }

func run(args []string) error {
	d := cli.NewDriver("seratd", "seratd [flags]")
	fs := d.FS
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks one)")
	portFile := fs.String("portfile", "", "write the bound address to this file once listening")
	maxJobs := fs.Int("maxjobs", 2, "sweep jobs running concurrently")
	maxQueue := fs.Int("maxqueue", 8, "accepted sweep jobs allowed to wait for a slot")
	maxEvals := fs.Int("maxevals", 4, "eval computations in flight before shedding with 429")
	cacheMB := fs.Int64("cachemb", 64, "result cache budget in MiB")
	maxEstMcycles := fs.Float64("maxestmcycles", 0, "admission budget in estimated simulated Mcycles: sweeps the static cost model prices above it are rejected with 422 (0: no budget)")
	ckDir := fs.String("checkpoint", "", "directory for interrupted-job checkpoints (empty: drain waits for jobs to finish)")
	drainWait := fs.Duration("drainwait", time.Minute, "maximum time to wait for in-flight work at shutdown")
	coord := fs.Bool("coordinator", false, "run as fleet coordinator: dispatch sweep jobs to workers as leases")
	workers := fs.String("workers", "", "comma-separated worker addresses to register at startup (coordinator mode)")
	join := fs.String("join", "", "coordinator address to register this daemon with as a worker")
	leaseCells := fs.Int("leasecells", 4, "grid cells per fleet lease (coordinator mode)")
	leaseTimeout := fs.Duration("leasetimeout", 2*time.Minute, "lease delivery deadline before the lease moves to another worker (coordinator mode)")
	heartbeat := fs.Duration("heartbeat", 5*time.Second, "worker health-probe period (coordinator mode)")
	withPprof := fs.Bool("pprof", false, "expose net/http/pprof profiling handlers under /debug/pprof/")
	memLimit := fs.Int64("memlimit", 0, "soft Go heap limit in MiB (0: no limit); see runtime/debug.SetMemoryLimit")
	if err := d.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return cli.Usagef("unexpected arguments: %v", fs.Args())
	}
	if !*coord && *workers != "" {
		return cli.Usagef("-workers requires -coordinator")
	}
	if *ckDir != "" {
		if err := os.MkdirAll(*ckDir, 0o755); err != nil {
			return err
		}
	}
	if *memLimit < 0 {
		return cli.Usagef("-memlimit must be >= 0, got %d", *memLimit)
	}
	if *maxEstMcycles < 0 {
		return cli.Usagef("-maxestmcycles must be >= 0, got %g", *maxEstMcycles)
	}
	if *memLimit > 0 {
		debug.SetMemoryLimit(*memLimit << 20)
	}

	ctx, stop := cli.SignalContext()
	defer stop()

	var co *fleet.Coordinator
	if *coord {
		co = fleet.NewCoordinator(fleet.Config{
			LeaseCells:     *leaseCells,
			LeaseTimeout:   *leaseTimeout,
			HeartbeatEvery: *heartbeat,
		})
		defer co.Close()
		for _, addr := range strings.Split(*workers, ",") {
			if addr = strings.TrimSpace(addr); addr == "" {
				continue
			}
			if err := co.Register(addr); err != nil {
				return err
			}
		}
	}

	srv := server.New(server.Config{
		MaxJobs:       *maxJobs,
		MaxQueue:      *maxQueue,
		MaxEvals:      *maxEvals,
		Workers:       d.Jobs(),
		CacheBytes:    *cacheMB << 20,
		CheckpointDir: *ckDir,
		MaxEstMcycles: *maxEstMcycles,
		Fleet:         co,
	})
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	role := "daemon"
	if *coord {
		role = "coordinator"
	}
	fmt.Fprintf(os.Stderr, "seratd: %s listening on %s\n", role, bound)
	if *join != "" {
		if err := joinFleet(ctx, *join, bound); err != nil {
			ln.Close()
			return err
		}
		fmt.Fprintf(os.Stderr, "seratd: joined fleet at %s\n", *join)
	}

	hs := &http.Server{Handler: buildHandler(srv, *withPprof)}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Drain: stop accepting connections and new work, let accepted work
	// reach a terminal state (finish or checkpoint), then exit.
	fmt.Fprintln(os.Stderr, "seratd: draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	drainErr := srv.Drain(dctx)
	hs.Shutdown(dctx)
	if drainErr != nil {
		return drainErr
	}
	fmt.Fprintln(os.Stderr, "seratd: drained")
	return nil
}

// buildHandler wraps the API handler with the optional pprof surface. The
// daemon serves its own handler, not http.DefaultServeMux, so the blank
// net/http/pprof import idiom would register the profiles on a mux nothing
// serves; instead the handlers are mounted explicitly on a private mux with
// the API as the fallback route. Off by default: the profile endpoints
// expose internals and cost CPU, so they are opt-in like expvar scraping.
func buildHandler(api http.Handler, withPprof bool) http.Handler {
	if !withPprof {
		return api
	}
	mux := http.NewServeMux()
	mux.Handle("/", api)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// joinFleet registers this daemon's bound address with a coordinator,
// retrying briefly so worker and coordinator can boot in either order.
func joinFleet(ctx context.Context, coord, bound string) error {
	body, err := json.Marshal(fleet.RegisterRequest{Addr: bound})
	if err != nil {
		return err
	}
	var lastErr error
	for attempt := 1; attempt <= 10; attempt++ {
		if attempt > 1 {
			select {
			case <-time.After(time.Duration(attempt) * 200 * time.Millisecond):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		resp, err := http.Post("http://"+coord+"/v1/fleet/register", "application/json", bytes.NewReader(body))
		if err != nil {
			lastErr = err
			continue
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
		lastErr = fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, data)
		if resp.StatusCode == http.StatusBadRequest || resp.StatusCode == http.StatusNotFound {
			break // the coordinator rejected us for keeps; retrying cannot help
		}
	}
	return fmt.Errorf("seratd: join fleet at %s: %w", coord, lastErr)
}
