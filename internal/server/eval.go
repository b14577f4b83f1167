package server

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"sync"

	"softerror/internal/checkpoint"
	"softerror/internal/core"
	"softerror/internal/experiments"
	"softerror/internal/spec"
)

// EvalRequest is the POST /v1/eval body. It mirrors cmd/repro's flag
// surface exactly — same names, same defaults — so that the rendered
// response is byte-identical to the CLI's output for the same invocation.
// Zero/absent fields take experiments.Defaults, cmd/repro's flag defaults.
type EvalRequest struct {
	// Experiment names one of the repro experiments ("table1", "fig2",
	// ..., or "all").
	Experiment string `json:"experiment"`
	// Benches is the roster subset (empty = all 26).
	Benches []string `json:"benches,omitempty"`
	// Commits per run (default core.DefaultCommits, at most
	// core.MaxServedCommits).
	Commits uint64 `json:"commits,omitempty"`
	// PET buffer entries for fig2 (default 512).
	PET int `json:"pet,omitempty"`
	// RawFIT is the raw per-bit soft-error rate for protection (default
	// 0.001).
	RawFIT float64 `json:"rawfit,omitempty"`
	// SimPoints is the slices-per-benchmark count (default 4).
	SimPoints int `json:"simpoints,omitempty"`
	// Strikes and Seed parameterise the outcomes campaign (defaults
	// 50000, 1; Strikes at most core.MaxServedStrikes).
	Strikes int    `json:"strikes,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
	// CSV selects CSV output over the aligned table.
	CSV bool `json:"csv,omitempty"`
}

// Fingerprint returns the request's content address — the cache key its
// response is stored under — after normalisation, or the normalisation
// error for an invalid request. Exposed so the invariant layer can audit
// injectivity over the same addresses the server serves by.
func (r *EvalRequest) Fingerprint() (string, error) {
	e, err := r.normalize()
	if err != nil {
		return "", err
	}
	return e.fingerprint(), nil
}

// evalSpec is a normalised, validated request: defaults applied, roster
// resolved to canonical benchmarks. Two requests that normalise equally
// are the same content address.
type evalSpec struct {
	experiment string
	benches    []spec.Benchmark
	names      []string
	commits    uint64
	pet        int
	rawFIT     float64
	simPoints  int
	strikes    int
	seed       uint64
	csv        bool
}

// normalize validates the request and applies cmd/repro's defaults.
func (r *EvalRequest) normalize() (evalSpec, error) {
	e := evalSpec{
		experiment: r.Experiment,
		commits:    r.Commits,
		pet:        r.PET,
		rawFIT:     r.RawFIT,
		simPoints:  r.SimPoints,
		strikes:    r.Strikes,
		seed:       r.Seed,
		csv:        r.CSV,
	}
	if !experiments.Valid(e.experiment) {
		return evalSpec{}, fmt.Errorf("unknown experiment %q (known: %v and \"all\")",
			e.experiment, experiments.Names())
	}
	// Every numeric knob is a count or a rate: negatives and non-finite
	// rates are refused here rather than fed to the engine.
	switch {
	case e.pet < 0:
		return evalSpec{}, fmt.Errorf("pet must be non-negative, got %d", e.pet)
	case e.simPoints < 0:
		return evalSpec{}, fmt.Errorf("simpoints must be non-negative, got %d", e.simPoints)
	case e.strikes < 0:
		return evalSpec{}, fmt.Errorf("strikes must be non-negative, got %d", e.strikes)
	case e.rawFIT < 0 || math.IsNaN(e.rawFIT) || math.IsInf(e.rawFIT, 0):
		return evalSpec{}, fmt.Errorf("rawfit must be a finite non-negative rate, got %v", e.rawFIT)
	case e.strikes > core.MaxServedStrikes:
		return evalSpec{}, fmt.Errorf("strikes must be at most %d, got %d", core.MaxServedStrikes, e.strikes)
	case e.commits > core.MaxServedCommits:
		return evalSpec{}, fmt.Errorf("commits must be at most %d, got %d", core.MaxServedCommits, e.commits)
	}
	var err error
	if e.benches, err = spec.ParseList(strings.Join(r.Benches, ",")); err != nil {
		return evalSpec{}, err
	}
	e.names = make([]string, len(e.benches))
	for i, b := range e.benches {
		e.names[i] = b.Name
	}
	def := experiments.Defaults
	if e.commits == 0 {
		e.commits = def.Commits
	}
	if e.pet == 0 {
		e.pet = def.PET
	}
	if e.rawFIT == 0 {
		e.rawFIT = def.RawFIT
	}
	if e.simPoints == 0 {
		e.simPoints = def.SimPoints
	}
	if e.strikes == 0 {
		e.strikes = def.Strikes
	}
	if e.seed == 0 {
		e.seed = def.Seed
	}
	return e, nil
}

// fingerprint is the content address: every knob that changes a single
// byte of the response participates.
func (e evalSpec) fingerprint() string {
	parts := []any{"eval", 1, e.experiment, e.csv, e.commits, e.pet,
		e.rawFIT, e.simPoints, e.strikes, e.seed}
	for _, n := range e.names {
		parts = append(parts, n)
	}
	return checkpoint.Fingerprint(parts...)
}

// contentType returns the response media type for the output form.
func (e evalSpec) contentType() string {
	if e.csv {
		return "text/csv; charset=utf-8"
	}
	return "text/plain; charset=utf-8"
}

// render computes the response body — exactly the bytes cmd/repro prints
// for the equivalent invocation — on a suite drawn from the warm pool.
func (s *Server) render(ctx context.Context, e evalSpec) ([]byte, error) {
	p := experiments.Params{
		Suite:     s.suites.get(e.commits, e.benches, e.names),
		Benches:   e.benches,
		Commits:   e.commits,
		PET:       e.pet,
		RawFIT:    e.rawFIT,
		SimPoints: e.simPoints,
		Strikes:   e.strikes,
		Seed:      e.seed,
		Jobs:      s.cfg.Workers,
	}
	var buf bytes.Buffer
	if err := experiments.Run(ctx, &buf, e.experiment, p, e.csv); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// flight single-flights one in-progress eval computation: concurrent
// identical requests block on done and share the outcome instead of each
// burning a worker-pool slot on the same simulation.
type flight struct {
	done  chan struct{}
	body  []byte
	ctype string
	err   error
}

// suitePool keeps warm core.Suite memos across requests — the reason a
// long-lived service beats the one-shot CLI: the roster simulations behind
// Table 1, Figures 2-4, the breakdown, the ablation and the register-file
// and protection studies are computed once per (roster, commits) and
// reused by every later request. LRU-bounded so pathological request streams cannot hoard memory.
type suitePool struct {
	ctx     context.Context
	workers int

	mu    sync.Mutex
	max   int
	m     map[string]*core.Suite
	order []string // least recently used first
}

func newSuitePool(ctx context.Context, workers, max int) *suitePool {
	return &suitePool{ctx: ctx, workers: workers, max: max, m: make(map[string]*core.Suite)}
}

// get returns the pooled suite for (commits, roster), building it on first
// use. The suite memo is single-flighted internally, so concurrent callers
// of the same cell run one simulation.
func (p *suitePool) get(commits uint64, benches []spec.Benchmark, names []string) *core.Suite {
	parts := []any{"suite", commits}
	for _, n := range names {
		parts = append(parts, n)
	}
	key := checkpoint.Fingerprint(parts...)
	p.mu.Lock()
	defer p.mu.Unlock()
	if s, ok := p.m[key]; ok {
		p.touch(key)
		return s
	}
	s := core.NewSuite(benches, commits)
	s.Ctx = p.ctx
	s.Workers = p.workers
	p.m[key] = s
	p.order = append(p.order, key)
	if len(p.order) > p.max {
		evict := p.order[0]
		p.order = p.order[1:]
		delete(p.m, evict)
	}
	return s
}

// touch moves key to the most-recently-used end.
func (p *suitePool) touch(key string) {
	for i, k := range p.order {
		if k == key {
			p.order = append(append(p.order[:i:i], p.order[i+1:]...), key)
			return
		}
	}
}
