package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"softerror/internal/checkpoint"
	"softerror/internal/fleet"
	"softerror/internal/par"
	"softerror/internal/spec"
	"softerror/internal/sweep"
	"softerror/internal/workload"
)

// Config sizes the service. Zero values take the documented defaults.
type Config struct {
	// MaxJobs is the number of sweep jobs running concurrently (default 2).
	MaxJobs int
	// MaxQueue is the number of accepted sweep jobs allowed to wait for a
	// slot (default 8); beyond it, submissions are rejected with 429.
	MaxQueue int
	// MaxEvals is the number of eval computations in flight (default 4);
	// beyond it, cache misses are rejected with 429. Cache hits are never
	// admission-controlled.
	MaxEvals int
	// Workers bounds each simulation campaign's parallelism (default
	// GOMAXPROCS, shared fairly by the par pool).
	Workers int
	// CacheBytes bounds the result cache (default 64 MiB; <0 disables).
	CacheBytes int64
	// CheckpointDir, when set, makes drain interrupt running sweep jobs and
	// checkpoint them there (fingerprint-named files) instead of waiting
	// for them to finish; resubmitting an interrupted grid resumes it.
	CheckpointDir string
	// MaxEstMcycles, when positive, is the admission budget for sweep
	// submissions in estimated simulated Mcycles: grids the static cost
	// model prices above it are rejected with 422 (and counted by the
	// sweeps_rejected_cost expvar) instead of being queued. Unpriceable
	// grids (streams the analyzer cannot decode) are always admitted.
	MaxEstMcycles float64
	// Fleet, when set, runs this server as a fleet coordinator: sweep jobs
	// are partitioned into leases and dispatched across the coordinator's
	// registered workers (degrading to local execution when none are
	// healthy), /v1/fleet/register admits workers, and /metrics grows a
	// fleet aggregate. The server does not own the coordinator — the
	// embedder closes it.
	Fleet *fleet.Coordinator
}

func (c Config) withDefaults() Config {
	if c.MaxJobs <= 0 {
		c.MaxJobs = 2
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 8
	}
	if c.MaxEvals <= 0 {
		c.MaxEvals = 4
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	return c
}

// Server is the seratd HTTP service. Create with New, serve via ServeHTTP
// (it implements http.Handler), stop with Drain then Close.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	cache   *Cache
	metrics *metrics
	suites  *suitePool

	// lifeCtx lives until Close: suites and eval computations run on it so
	// an in-flight eval finishes during drain. jobsCtx is cancelled at
	// drain time (when checkpointing is configured) to interrupt jobs.
	lifeCtx    context.Context
	lifeCancel context.CancelFunc
	jobsCtx    context.Context
	jobsCancel context.CancelFunc

	evalGate *gate

	mu       sync.Mutex
	draining bool
	flights  map[string]*flight
	jobs     map[string]*Job
	byFP     map[string]*Job
	jobSeq   int

	slots chan struct{}  // worker slots for sweep jobs
	wg    sync.WaitGroup // accepted sweep jobs not yet terminal
}

// streamBytes is the decoded-stream store's budget in a daemon. A daemon
// revisits every benchmark in each round of mixed traffic (evals, sweep
// pricing and runs, bounds), so the store should keep the whole roster at
// the commit targets such traffic uses: 26 streams of about 1.3 MB at 20k
// commits.
const streamBytes = 64 << 20

// streamBudget is the store budget for a daemon under the Go runtime's
// current memory limit: streamBytes, capped at a quarter of the limit
// when one is set (seratd -memlimit), so kept streams cannot crowd out
// the work the limit is there to protect.
func streamBudget() int64 {
	return min(streamBytes, debug.SetMemoryLimit(-1)/4)
}

// New builds a ready-to-serve Server. It sizes the process-wide decoded
// stream store (workload.Streams) for daemon traffic, so call it after
// setting any runtime memory limit.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	workload.Streams().SetBudget(streamBudget())
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		cache:   NewCache(cfg.CacheBytes),
		flights: make(map[string]*flight),
		jobs:    make(map[string]*Job),
		byFP:    make(map[string]*Job),
		slots:   make(chan struct{}, cfg.MaxJobs),
	}
	s.metrics = newMetrics(time.Now(), s.cache)
	s.lifeCtx, s.lifeCancel = context.WithCancel(context.Background())
	s.jobsCtx, s.jobsCancel = context.WithCancel(s.lifeCtx)
	s.suites = newSuitePool(s.lifeCtx, cfg.Workers, 8)
	s.evalGate = newGate(cfg.MaxEvals)

	s.mux.HandleFunc("POST /v1/eval", s.handleEval)
	s.mux.HandleFunc("GET /v1/bound", s.handleBound)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/csv", s.handleJobCSV)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/lease", s.handleLease)
	s.mux.HandleFunc("POST /v1/fleet/register", s.handleFleetRegister)
	if cfg.Fleet != nil {
		s.metrics.vars.Set("fleet", expvar.Func(func() any { return cfg.Fleet.Snapshot() }))
	}
	return s
}

// ServeHTTP routes the request, counting it.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)
	s.mux.ServeHTTP(w, r)
}

// Drain stops accepting work and waits for every accepted job and eval to
// reach a terminal state, or for ctx to expire. With CheckpointDir set,
// running jobs are interrupted and checkpointed; otherwise they are left
// to finish naturally. Either way no accepted job is silently dropped:
// each ends done, failed or interrupted.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already && s.cfg.CheckpointDir != "" {
		s.jobsCancel()
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
}

// Close releases the server's contexts. Call after Drain.
func (s *Server) Close() { s.lifeCancel() }

// isDraining reports whether new work is being rejected.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// gate is counting-semaphore admission control: Enter either grants a
// slot immediately or fails — overload sheds instead of queueing, so the
// caller can answer 429 while the pool stays saturated but not oversubscribed.
type gate struct{ slots chan struct{} }

func newGate(n int) *gate { return &gate{slots: make(chan struct{}, n)} }

// enter returns a release func, or false when the gate is full.
func (g *gate) enter() (func(), bool) {
	select {
	case g.slots <- struct{}{}:
		return func() { <-g.slots }, true
	default:
		return nil, false
	}
}

// maxBodyBytes bounds a POST body. The largest real request, a roster
// sweep or a lease naming its grid, is a few KiB.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's body as exactly one JSON value into v, refusing
// unknown fields so a typo'd knob cannot silently fall back to its
// default, and reading at most maxBodyBytes, so one POST cannot make the
// daemon buffer an arbitrarily large value. On failure it answers 413 for
// an oversized body or 400 for any other decode error, and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		// Read to the end, so the limit holds for the whole body.
		switch err = dec.Decode(&json.RawMessage{}); err {
		case io.EOF:
			return true
		case nil:
			err = errors.New("trailing data after the JSON value")
		}
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", maxBodyBytes)
	} else {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	return false
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// handleEval serves one evaluation: cache hit → stored bytes; miss →
// simulate under the eval gate, cache, serve. Concurrent identical misses
// single-flight onto one computation. The X-Cache response header says
// which path served the bytes ("hit" or "miss").
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		s.metrics.rejected.Add(1)
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req EvalRequest
	if !decodeBody(w, r, &req) {
		return
	}
	e, err := req.normalize()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := e.fingerprint()
	if body, ctype, ok := s.cache.Get(key); ok {
		s.metrics.cacheHits.Add(1)
		s.serveBody(w, ctype, "hit", body)
		return
	}

	// Single-flight: the first miss computes, the rest wait and share.
	s.mu.Lock()
	if f, ok := s.flights[key]; ok {
		s.mu.Unlock()
		select {
		case <-f.done:
		case <-r.Context().Done():
			return
		}
		if f.err != nil {
			httpError(w, http.StatusInternalServerError, "evaluation failed: %v", f.err)
			return
		}
		s.metrics.cacheHits.Add(1)
		s.serveBody(w, f.ctype, "hit", f.body)
		return
	}
	f := &flight{done: make(chan struct{}), ctype: e.contentType()}
	s.flights[key] = f
	s.mu.Unlock()

	release, ok := s.evalGate.enter()
	if !ok {
		s.mu.Lock()
		delete(s.flights, key)
		s.mu.Unlock()
		f.err = fmt.Errorf("too many evaluations in flight")
		close(f.done)
		s.metrics.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "too many evaluations in flight")
		return
	}
	s.metrics.cacheMisses.Add(1)
	s.metrics.evalsInFlight.Add(1)
	f.body, f.err = s.render(s.lifeCtx, e)
	s.metrics.evalsInFlight.Add(-1)
	release()
	s.mu.Lock()
	delete(s.flights, key)
	s.mu.Unlock()
	close(f.done)
	if f.err != nil {
		httpError(w, http.StatusInternalServerError, "evaluation failed: %v", f.err)
		return
	}
	s.cache.Put(key, f.ctype, f.body)
	s.serveBody(w, f.ctype, "miss", f.body)
}

func (s *Server) serveBody(w http.ResponseWriter, ctype, xcache string, body []byte) {
	w.Header().Set("Content-Type", ctype)
	w.Header().Set("X-Cache", xcache)
	w.Write(body)
}

// SweepRequest is the POST /v1/sweep body: the grid axes plus the
// failed-cell policy, mirroring cmd/sweep's flags.
type SweepRequest struct {
	Benches    []string `json:"benches,omitempty"`
	Policies   []string `json:"policies"`
	IQSizes    []int    `json:"iqsizes,omitempty"`
	OutOfOrder []bool   `json:"ooo,omitempty"`
	Commits    uint64   `json:"commits,omitempty"`
	// OnError is the failed-cell policy as par.ParsePolicy spells it:
	// "fail-fast" (default) or "continue".
	OnError string `json:"onerror,omitempty"`
}

// SweepAccepted is the 202 response to a sweep submission.
type SweepAccepted struct {
	ID    string `json:"id"`
	Total int    `json:"total"`
	// Deduplicated is true when the submission matched an existing
	// non-failed job for the identical grid, which is returned instead of
	// re-running.
	Deduplicated bool `json:"deduplicated,omitempty"`
	// Priced reports whether the static cost model could price the grid.
	// It distinguishes a genuinely ~0-Mcycle estimate from "the analyzer
	// could not decode the stream" (false, with EstimatedMcycles zero).
	// Deduplicated responses echo the existing job and are never priced.
	Priced bool `json:"priced"`
	// EstimatedMcycles is the static cost model's price for the whole
	// grid, in millions of simulated cycles — computed analytically at
	// admission, before any simulation runs. Meaningful only when Priced
	// is true.
	EstimatedMcycles float64 `json:"estimated_mcycles"`
}

// buildGrid translates the request into a sweep.Grid. The axes decode
// through fleet.GridSpec.Build, the one names-to-grid decoder, which also
// caps the grid at fleet.MaxGridCells: the iqsizes/ooo arrays come straight
// from the request body, and an unbounded product would let one POST queue
// arbitrarily much simulation. Empty benches mean the whole roster.
func (s *Server) buildGrid(req SweepRequest) (*sweep.Grid, error) {
	sp := fleet.GridSpec{
		Benches:    req.Benches,
		Policies:   req.Policies,
		IQSizes:    req.IQSizes,
		OutOfOrder: req.OutOfOrder,
		Commits:    req.Commits,
	}
	if len(sp.Benches) == 0 {
		for _, b := range spec.All() {
			sp.Benches = append(sp.Benches, b.Name)
		}
	}
	g, err := sp.Build()
	if err != nil {
		return nil, err
	}
	g.Workers = s.cfg.Workers
	if g.OnError, err = par.ParsePolicy(req.OnError); err != nil {
		return nil, err
	}
	return g, nil
}

// handleSweep accepts a grid campaign: dedup against live jobs by grid
// fingerprint, price the grid, admission-check the queue, register the job
// and launch it.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		s.metrics.rejected.Add(1)
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req SweepRequest
	if !decodeBody(w, r, &req) {
		return
	}
	g, err := s.buildGrid(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	fp := g.Fingerprint()
	echo := func(prev *Job) {
		writeJSON(w, http.StatusAccepted, SweepAccepted{
			ID: prev.ID, Total: prev.Total, Deduplicated: true,
		})
	}

	// Dedup wins: an identical already-admitted job is echoed without
	// pricing.
	s.mu.Lock()
	prev := s.liveTwin(fp)
	s.mu.Unlock()
	if prev != nil {
		echo(prev)
		return
	}

	// Price the grid analytically before admission, so the cost budget can
	// reject over-budget work outright (the ROADMAP's admission pre-filter)
	// and the 202 can report the estimate alongside an explicit priced
	// flag. The per-cell estimates go with the job, which orders its cells
	// by them instead of pricing the grid again.
	est, estMcycles, priced := s.price(g)

	s.mu.Lock()
	// A concurrent twin may have been admitted while this one was priced.
	if prev := s.liveTwin(fp); prev != nil {
		s.mu.Unlock()
		echo(prev)
		return
	}
	if s.cfg.MaxEstMcycles > 0 && priced && estMcycles > s.cfg.MaxEstMcycles {
		s.mu.Unlock()
		s.metrics.rejectedCost.Add(1)
		httpError(w, http.StatusUnprocessableEntity,
			"grid priced at %.1f estimated Mcycles, over the %.1f admission budget",
			estMcycles, s.cfg.MaxEstMcycles)
		return
	}
	// Admissions increment jobs_queued under s.mu, so two cannot both take
	// the last seat; runJob's decrements only free seats.
	if queued := s.metrics.jobsQueued.Value(); queued >= int64(s.cfg.MaxQueue) {
		s.mu.Unlock()
		s.metrics.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "job queue is full (%d queued)", queued)
		return
	}
	s.jobSeq++
	id := fmt.Sprintf("job-%06d", s.jobSeq)
	j := newJob(id, fp, g.Size())
	s.jobs[id] = j
	s.byFP[fp] = j
	s.wg.Add(1)
	s.metrics.jobsQueued.Add(1)
	s.mu.Unlock()

	go s.runJob(j, g, est)
	writeJSON(w, http.StatusAccepted, SweepAccepted{
		ID: id, Total: j.Total, Priced: priced, EstimatedMcycles: estMcycles,
	})
}

// price runs the static cost model over every cell of g, counting each
// grid it prices in sweeps_priced. It returns the per-cell estimated cycle
// counts and their total in Mcycles; ok is false (est nil) when the grid
// cannot be priced.
func (s *Server) price(g *sweep.Grid) (est []uint64, mcycles float64, ok bool) {
	est, ok = g.EstimateCells()
	if !ok {
		return nil, 0, false
	}
	s.metrics.sweepsPriced.Add(1)
	var sum uint64
	for _, c := range est {
		sum += c
	}
	return est, float64(sum) / 1e6, true
}

// liveTwin returns the job already admitted for the grid fingerprint fp,
// or nil when there is none or it failed. Deterministic grids mean an
// identical submission would produce identical rows, so the existing job is
// handed back; a failed or interrupted job may deserve a retry, which —
// thanks to checkpointing — resumes from the completed cells. The caller
// holds s.mu.
func (s *Server) liveTwin(fp string) *Job {
	prev, ok := s.byFP[fp]
	if !ok {
		return nil
	}
	if st := prev.State(); st == JobFailed || st == JobInterrupted {
		return nil
	}
	return prev
}

// runGrid executes a sweep grid: through the fleet coordinator when this
// server runs in coordinator mode, locally otherwise. Both paths honour the
// checkpoint and render byte-identical rows — the fleet's contract.
func (s *Server) runGrid(ctx context.Context, g *sweep.Grid, est []uint64, ck *checkpoint.File[sweep.Row], progress func(done, total int)) ([]sweep.Row, error) {
	if s.cfg.Fleet != nil {
		return s.cfg.Fleet.Run(ctx, g, ck, progress)
	}
	// Local execution runs cells cheapest-first by the per-cell estimates
	// handleSweep priced the grid at: quick cells surface early progress and
	// stragglers drain last. Rows are scattered back to cell order, so the
	// served bytes are identical to an unordered run's; RunIndices already
	// blames cells, not positions. An unpriceable grid (nil est) runs in
	// cell order.
	if est == nil {
		return g.RunContext(ctx, ck, progress)
	}
	order := sweep.OrderByEstimate(est)
	out, err := g.RunIndices(ctx, order, ck, progress)
	rows := make([]sweep.Row, g.Size())
	for k, i := range order {
		if k < len(out) {
			rows[i] = out[k]
		}
	}
	return rows, err
}

// runJob drives one accepted sweep job to a terminal state. It owns the
// job's wg token; every exit path records a terminal event first.
func (s *Server) runJob(j *Job, g *sweep.Grid, est []uint64) {
	defer s.wg.Done()

	// Wait for a worker slot; drain (or shutdown) while queued interrupts
	// the job before it starts — zero cells done, nothing to checkpoint.
	select {
	case s.slots <- struct{}{}:
	case <-s.jobsCtx.Done():
		s.metrics.jobsQueued.Add(-1)
		s.metrics.jobsInterrupted.Add(1)
		j.finish(JobInterrupted, nil, nil, "", fmt.Errorf("interrupted before start"))
		return
	}
	defer func() { <-s.slots }()
	s.metrics.jobsQueued.Add(-1)
	s.metrics.jobsInFlight.Add(1)
	defer s.metrics.jobsInFlight.Add(-1)
	j.start()

	var ck *checkpoint.File[sweep.Row]
	ckPath := ""
	if s.cfg.CheckpointDir != "" {
		ckPath = filepath.Join(s.cfg.CheckpointDir, j.Fingerprint+".ckpt")
		var err error
		ck, err = checkpoint.Open[sweep.Row](ckPath, "sweep", j.Fingerprint, g.Size(), true)
		if err != nil {
			s.metrics.jobsFailed.Add(1)
			j.finish(JobFailed, nil, nil, "", err)
			return
		}
	}

	rows, err := s.runGrid(s.jobsCtx, g, est, ck, func(done, total int) { j.progress(done) })
	switch {
	case err == nil:
		if ck != nil {
			ck.Remove()
		}
		s.metrics.jobsDone.Add(1)
		j.finish(JobDone, rows, nil, "", nil)
	case errors.Is(err, context.Canceled) && s.jobsCtx.Err() != nil:
		// Drained mid-run: completed cells are safe in the checkpoint.
		s.metrics.jobsInterrupted.Add(1)
		j.finish(JobInterrupted, nil, nil, ckPath, fmt.Errorf("interrupted by drain"))
	default:
		var errs par.Errors
		skip := map[int]bool{}
		if errors.As(err, &errs) {
			// Collect policy: the unpoisoned rows are valid measurements.
			for _, i := range errs.Indices() {
				skip[i] = true
			}
		} else {
			rows = nil // cells never computed hold zero rows, not results
		}
		s.metrics.jobsFailed.Add(1)
		j.finish(JobFailed, rows, skip, ckPath, err)
	}
}

// lookupJob resolves the {id} path value.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job %q", id)
	}
	return j
}

// handleJob serves the job-status snapshot.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// handleJobEvents streams the job's events as ndjson, flushing each line,
// from the first event through the terminal one. Reconnecting replays the
// full history — events are retained for the job's lifetime, so no
// transition can be missed.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for i := 0; ; i++ {
		ev, ok := j.next(r.Context(), i)
		if !ok {
			return // client went away
		}
		if err := enc.Encode(ev); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if ev.State.terminal() {
			return
		}
	}
}

// handleJobCSV streams a terminal job's rows through the shared
// sweep.CSVWriter — byte-identical to cmd/sweep's file output for the
// same grid. Poisoned cells of a failed collect-and-continue job are
// skipped, exactly as the CLI skips them.
func (s *Server) handleJobCSV(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	if !j.State().terminal() {
		httpError(w, http.StatusConflict, "job %s is not finished (%s)", j.ID, j.State())
		return
	}
	rows, skip := j.Rows()
	if rows == nil {
		httpError(w, http.StatusConflict, "job %s has no rows (%s)", j.ID, j.State())
		return
	}
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	cw := sweep.NewCSVWriter(w)
	for i, row := range rows {
		if skip[i] {
			continue
		}
		if err := cw.WriteRow(row); err != nil {
			return
		}
	}
	cw.Flush()
}

// handleHealthz answers ok while accepting work, 503 while draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics renders the expvar map as JSON.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintln(w, s.metrics.vars.String())
}
