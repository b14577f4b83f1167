package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"softerror/internal/checkpoint"
	"softerror/internal/sweep"
)

// Config tunes the coordinator. Zero values take the documented defaults.
type Config struct {
	// LeaseCells bounds the cells per lease (default 4): small enough that
	// a lost lease re-runs little work, large enough that cells of one
	// benchmark still batch over a shared decode on the worker. A lease is
	// a run of consecutive pending cells, and the grid is benchmark-major,
	// so a lease spans as few benchmarks as its length allows.
	LeaseCells int
	// LeaseTimeout is the deadline for one lease delivery (default 2m). A
	// hung worker holds a lease for at most this long before the lease
	// expires and moves to another worker.
	LeaseTimeout time.Duration
	// HeartbeatEvery is the worker health-probe period (default 5s).
	HeartbeatEvery time.Duration
}

// heartbeatTimeout bounds one health probe.
const heartbeatTimeout = 2 * time.Second

func (c Config) withDefaults() Config {
	if c.LeaseCells <= 0 {
		c.LeaseCells = 4
	}
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 2 * time.Minute
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 5 * time.Second
	}
	return c
}

// WorkerStatus is one worker's health and lease accounting, as served under
// /metrics on a coordinator.
type WorkerStatus struct {
	Addr     string `json:"addr"`
	Healthy  bool   `json:"healthy"`
	Leases   int64  `json:"leases_done"`
	Failures int64  `json:"lease_failures"`
}

// Snapshot is the fleet-wide metrics aggregate.
type Snapshot struct {
	Workers          []WorkerStatus `json:"workers"`
	LeasesDispatched int64          `json:"leases_dispatched"`
	LeaseFailures    int64          `json:"lease_failures"`
	LocalFallbacks   int64          `json:"local_fallbacks"`
}

// worker is the coordinator's view of one registered daemon.
type worker struct {
	addr     string
	healthy  bool
	leases   int64
	failures int64
}

// Coordinator partitions sweep grids into cell-range leases and drives them
// across registered workers. Safe for concurrent use; one coordinator can
// run many grids at once (each Run owns its own dispatch state).
type Coordinator struct {
	cfg    Config
	client *http.Client

	mu       sync.Mutex
	workers  map[string]*worker
	leaseSeq int

	dispatched atomic.Int64
	failures   atomic.Int64
	fallbacks  atomic.Int64

	hbStop chan struct{}
	hbOnce sync.Once
}

// NewCoordinator builds a coordinator and starts its heartbeat monitor.
// Close it to stop the monitor.
func NewCoordinator(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:     cfg,
		client:  &http.Client{},
		workers: make(map[string]*worker),
		hbStop:  make(chan struct{}),
	}
	go c.heartbeatLoop()
	return c
}

// Close stops the heartbeat monitor. In-flight Runs are unaffected (their
// health view simply stops refreshing).
func (c *Coordinator) Close() { c.hbOnce.Do(func() { close(c.hbStop) }) }

// Register admits a worker by host:port address. Registration is
// idempotent; a re-registered worker is (re)marked healthy, so a restarted
// daemon re-joining announces its own recovery.
func (c *Coordinator) Register(addr string) error {
	if err := (RegisterRequest{Addr: addr}).Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.workers[addr]; ok {
		w.healthy = true
		return nil
	}
	c.workers[addr] = &worker{addr: addr, healthy: true}
	return nil
}

// NumWorkers returns the registered worker count.
func (c *Coordinator) NumWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// Snapshot aggregates fleet-wide metrics: per-worker health and lease
// accounting plus the coordinator's totals.
func (c *Coordinator) Snapshot() Snapshot {
	c.mu.Lock()
	snap := Snapshot{
		LeasesDispatched: c.dispatched.Load(),
		LeaseFailures:    c.failures.Load(),
		LocalFallbacks:   c.fallbacks.Load(),
	}
	for _, w := range c.workers {
		snap.Workers = append(snap.Workers, WorkerStatus{
			Addr:     w.addr,
			Healthy:  w.healthy,
			Leases:   w.leases,
			Failures: w.failures,
		})
	}
	c.mu.Unlock()
	sort.Slice(snap.Workers, func(i, j int) bool { return snap.Workers[i].Addr < snap.Workers[j].Addr })
	return snap
}

// healthyAddrs returns the currently-healthy workers, sorted for
// deterministic partitioning.
func (c *Coordinator) healthyAddrs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, w := range c.workers {
		if w.healthy {
			out = append(out, w.addr)
		}
	}
	sort.Strings(out)
	return out
}

func (c *Coordinator) setHealth(addr string, healthy bool) {
	c.mu.Lock()
	if w, ok := c.workers[addr]; ok {
		w.healthy = healthy
	}
	c.mu.Unlock()
}

func (c *Coordinator) bump(addr string, f func(w *worker)) {
	c.mu.Lock()
	if w, ok := c.workers[addr]; ok {
		f(w)
	}
	c.mu.Unlock()
}

// heartbeatLoop probes every registered worker's /healthz on the configured
// period, marking them healthy or unhealthy. A worker that failed a lease
// (marked unhealthy there) and then recovers is re-admitted by its next
// heartbeat; a worker draining or dead fails the probe and drops out of the
// next wave's partition.
func (c *Coordinator) heartbeatLoop() {
	t := time.NewTicker(c.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-c.hbStop:
			return
		case <-t.C:
			c.mu.Lock()
			addrs := make([]string, 0, len(c.workers))
			for a := range c.workers {
				addrs = append(addrs, a)
			}
			c.mu.Unlock()
			for _, addr := range addrs {
				c.setHealth(addr, c.probe(addr))
			}
		}
	}
}

// probe health-checks one worker.
func (c *Coordinator) probe(addr string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), heartbeatTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// fatalError marks failures no reassignment can heal: admission
// rejections (the lease itself is malformed) and protocol violations
// (wrong cell coverage). The dispatch loop fails the run loudly instead of
// burning the fleet on them.
type fatalError struct{ err error }

func (e fatalError) Error() string { return e.err.Error() }
func (e fatalError) Unwrap() error { return e.err }

func fatalf(format string, args ...any) error {
	return fatalError{err: fmt.Errorf(format, args...)}
}

func isFatal(err error) bool {
	var f fatalError
	return errors.As(err, &f)
}

// lease is one dispatchable unit: a run of consecutive pending cells of
// the current grid, which any worker that has not yet failed it may take.
type lease struct {
	id     string
	cells  []int
	ranges []Range
	tried  map[string]bool
}

// leaseQueue is the wave's one shared work pool, in cell order. Every
// worker loop takes the next lease it has not yet failed, so a straggler
// holds one lease while the idle workers drain the rest; leases left
// untaken when every loop exits stay pending for the next wave.
type leaseQueue struct {
	mu     sync.Mutex
	closed bool
	leases []*lease
}

func (q *leaseQueue) take(addr string) *lease {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	for k, l := range q.leases {
		if !l.tried[addr] {
			q.leases = slices.Delete(q.leases, k, k+1)
			return l
		}
	}
	return nil
}

func (q *leaseQueue) requeue(l *lease) {
	q.mu.Lock()
	if !q.closed {
		q.leases = append(q.leases, l)
	}
	q.mu.Unlock()
}

func (q *leaseQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
}

// partition chunks the pending cells, in cell order, into leases of at
// most LeaseCells. A chunk may straddle cells a checkpoint restored;
// rangesOf encodes it as several ranges.
func (c *Coordinator) partition(pending []int) []*lease {
	var leases []*lease
	for lo := 0; lo < len(pending); lo += c.cfg.LeaseCells {
		chunk := pending[lo:min(lo+c.cfg.LeaseCells, len(pending))]
		c.mu.Lock()
		c.leaseSeq++
		id := fmt.Sprintf("lease-%06d", c.leaseSeq)
		c.mu.Unlock()
		leases = append(leases, &lease{
			id:     id,
			cells:  chunk,
			ranges: rangesOf(chunk),
			tried:  make(map[string]bool),
		})
	}
	return leases
}

// deliver sends one lease to one worker, once. It returns the rows in
// l.cells order, or an error that is either fatal (the run must stop) or
// not (the worker is suspect and the lease moves on).
func (c *Coordinator) deliver(ctx context.Context, addr string, sp GridSpec, l *lease) ([]sweep.Row, error) {
	body, err := json.Marshal(LeaseRequest{Lease: l.id, Grid: sp, Ranges: l.ranges})
	if err != nil {
		return nil, fatalf("fleet: marshal lease %s: %v", l.id, err)
	}
	actx, cancel := context.WithTimeout(ctx, c.cfg.LeaseTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, "http://"+addr+"/v1/lease", bytes.NewReader(body))
	if err != nil {
		return nil, fatalf("fleet: build lease request for %s: %v", addr, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fleet: lease %s to %s: %w", l.id, addr, err)
	}
	data, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK && rerr == nil:
		var lr LeaseResponse
		if err := json.Unmarshal(data, &lr); err != nil {
			return nil, fmt.Errorf("fleet: lease %s to %s: bad response body: %v", l.id, addr, err)
		}
		rows, err := lr.rowsFor(l.cells)
		if err != nil {
			// Wrong coverage is a protocol violation: serving around it
			// would risk wrong bytes, so fail the run loudly.
			return nil, fatalError{err: err}
		}
		return rows, nil
	case resp.StatusCode == http.StatusBadRequest:
		// The worker rejected the lease at admission: re-sending the same
		// bytes cannot heal it.
		return nil, fatalf("fleet: worker %s rejected lease %s: %.200s", addr, l.id, data)
	default:
		return nil, fmt.Errorf("fleet: lease %s to %s: HTTP %d: %.200s",
			l.id, addr, resp.StatusCode, data)
	}
}

// Run computes the grid across the fleet and returns one row per cell, in
// axis order — byte-equivalent to g.RunContext run locally. The grid's
// cells go through one checkpoint.Cells, the protocol checkpoint.Run
// drives: cells recorded in ck are restored, each lease's rows land as it
// returns, and ck is saved on every exit, so a coordinator drained mid-grid
// checkpoint-interrupts cleanly and a resubmitted grid resumes. With zero
// healthy workers (none registered, or all lost) the pending cells degrade
// to local execution through g.RunIndices. On error the partial rows come
// back with it, as from a local run: under a collect policy a par.Errors
// names the poisoned grid cells and every other row is valid.
func (c *Coordinator) Run(ctx context.Context, g *sweep.Grid, ck *checkpoint.File[sweep.Row], progress func(done, total int)) ([]sweep.Row, error) {
	total := g.Size()
	if total < 1 {
		return nil, fmt.Errorf("fleet: empty grid")
	}
	cells := make([]int, total)
	for i := range cells {
		cells[i] = i
	}
	run, err := checkpoint.Begin(ck, total, cells, progress)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	var pending []int
	for _, i := range cells {
		if !run.Restored(i) {
			pending = append(pending, i)
		}
	}
	pending, err = c.waves(ctx, g, run, pending)
	var local []sweep.Row
	if err == nil && len(pending) > 0 {
		// Graceful degradation: no fleet (or a fleet that keeps failing
		// leases while answering heartbeats) must never strand a grid.
		c.fallbacks.Add(1)
		base := total - len(pending)
		local, err = g.RunIndices(ctx, pending, ck, func(d, _ int) {
			if progress != nil {
				progress(base+d, total)
			}
		})
		if err != nil {
			err = fmt.Errorf("fleet: local fallback: %w", err)
		}
	}
	rows, err := run.End(err)
	for k, row := range local {
		rows[pending[k]] = row
	}
	return rows, err
}

// waves drives lease waves over the healthy workers, landing each lease's
// rows in run, until no cell is pending or the fleet cannot take the rest:
// no healthy worker, or two waves in a row that completed nothing. It
// returns the cells still pending.
func (c *Coordinator) waves(ctx context.Context, g *sweep.Grid, run *checkpoint.Cells[sweep.Row], pending []int) ([]int, error) {
	sp := SpecOf(g)
	for stalls := 0; len(pending) > 0; {
		if err := ctx.Err(); err != nil {
			return pending, fmt.Errorf("fleet: %w", err)
		}
		healthy := c.healthyAddrs()
		if len(healthy) == 0 || stalls >= 2 {
			return pending, nil
		}
		completed, err := c.dispatch(ctx, sp, pending, healthy, run.Land)
		if err != nil {
			return pending, err
		}
		if len(completed) == 0 {
			stalls++
		} else {
			stalls = 0
		}
		pending = slices.DeleteFunc(pending, func(i int) bool { return completed[i] })
	}
	return nil, nil
}

// dispatch runs one wave: partition the pending cells into a shared queue
// of leases, then drive one loop per healthy worker that takes the next
// lease whenever it is free. A worker whose delivery fails is marked
// unhealthy and sits out the rest of the wave; its lease goes back on the
// queue for another worker, or into the next wave. land records one
// landed cell's row; the worker loops call it concurrently.
func (c *Coordinator) dispatch(ctx context.Context, sp GridSpec, pending []int, healthy []string, land func(cell int, row sweep.Row) error) (map[int]bool, error) {
	q := &leaseQueue{leases: c.partition(pending)}
	completed := make(map[int]bool, len(pending))
	var cmu sync.Mutex
	var firstErr error
	fail := func(err error) {
		cmu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		cmu.Unlock()
		q.close()
	}

	var wg sync.WaitGroup
	for _, addr := range healthy {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			for {
				l := q.take(addr)
				if l == nil {
					return
				}
				rows, err := c.deliver(ctx, addr, sp, l)
				if err == nil {
					for k, i := range l.cells {
						if err := land(i, rows[k]); err != nil {
							fail(err)
							return
						}
					}
					cmu.Lock()
					for _, i := range l.cells {
						completed[i] = true
					}
					cmu.Unlock()
					c.dispatched.Add(1)
					c.bump(addr, func(w *worker) { w.leases++ })
					continue
				}
				if ctx.Err() != nil {
					fail(fmt.Errorf("fleet: %w", ctx.Err()))
					return
				}
				if isFatal(err) {
					fail(err)
					return
				}
				// A deterministic lease fails the same way if re-sent:
				// suspect the worker, hand the lease to the rest of the
				// wave, sit this one out until a heartbeat re-admits it.
				c.failures.Add(1)
				c.bump(addr, func(w *worker) { w.failures++ })
				c.setHealth(addr, false)
				l.tried[addr] = true
				q.requeue(l)
				return
			}
		}(addr)
	}
	wg.Wait()
	return completed, firstErr
}
