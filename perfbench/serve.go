package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"softerror/internal/core"
	"softerror/internal/experiments"
	"softerror/internal/par"
	"softerror/internal/server"
	"softerror/internal/spec"
	"softerror/internal/static"
	"softerror/internal/sweep"
)

// serve-mixed: seratd's handler behind a loopback listener, driven by
// maxProcs closed-loop clients through rounds of four phases — cold
// /v1/eval misses, small /v1/sweep jobs followed to their CSV, /v1/bound
// queries, and repeat evals that hit the response cache. The phases run
// one after another because mixing them made hit tails swing with
// whatever miss happened to share the CPU. Every miss is at a distinct
// (benchmark, commits), so it builds a new suite and simulates; the seed
// orders the roster, jitters the commit budgets and orders the hits.

const (
	missExperiment = "table1"
	missCommits    = 20_000
	sweepCommits   = 10_000
	boundCommits   = 20_000
	hitsPerMiss    = 24
	// roundSeconds is one round on the 2-vCPU reference host.
	roundSeconds = 1.0
	// commitStride separates the commit budgets of consecutive rounds, so
	// no key repeats within a run.
	commitStride = 8
)

var sweepJobPolicies = []core.Policy{core.PolicyBaseline, core.PolicySquashL1}
var sweepJobIQ = []int{32, 64}
var boundPolicies = []core.Policy{core.PolicyBaseline, core.PolicySquashL1, core.PolicySquashL0}

// request is one operation of the script and, once run, its outcome.
type request struct {
	route   string // eval_miss, eval_hit, sweep or bound
	bench   spec.Benchmark
	commits uint64
	policy  core.Policy
	miss    *request // for a hit, the miss it repeats

	latency float64 // seconds, client side
	status  int
	body    []byte
	err     error
}

// round is one pass of the four phases.
type round struct {
	phases [4][]*request
}

// newRound draws round r of the script from rng.
func (o options) newRound(rng *rand.Rand, r int) *round {
	scale := func(c uint64) uint64 {
		if o.commits != 0 {
			c = o.commits
		}
		return c + uint64(r*commitStride)
	}
	jitter := func() uint64 { return uint64(rng.Intn(commitStride)) }
	var rd round
	for _, i := range rng.Perm(len(spec.All())) {
		b := spec.All()[i]
		rd.phases[0] = append(rd.phases[0], &request{route: "eval_miss", bench: b, commits: scale(missCommits) + jitter()})
	}
	for _, i := range rng.Perm(len(spec.All())) {
		b := spec.All()[i]
		rd.phases[1] = append(rd.phases[1], &request{route: "sweep", bench: b, commits: scale(sweepCommits) + jitter()})
	}
	for k, i := range rng.Perm(len(spec.All())) {
		pol := boundPolicies[k%len(boundPolicies)]
		rd.phases[2] = append(rd.phases[2], &request{route: "bound", bench: spec.All()[i], policy: pol, commits: scale(boundCommits) + jitter()})
	}
	for k := 0; k < hitsPerMiss; k++ {
		for _, i := range rng.Perm(len(rd.phases[0])) {
			m := rd.phases[0][i]
			rd.phases[3] = append(rd.phases[3], &request{route: "eval_hit", bench: m.bench, commits: m.commits, miss: m})
		}
	}
	return &rd
}

// client drives one server with the script's requests.
type client struct {
	url  string
	http *http.Client
	tr   *tracer
	seq  atomic.Int64

	mu    sync.Mutex
	calls map[int64]map[string]float64 // traced: request id → route → seconds
}

// do sends one HTTP request tagged with a request id the tracing
// middleware reads.
func (c *client) do(method, path string, body []byte, req int64) (*http.Response, []byte, error) {
	hr, err := http.NewRequest(method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	hr.Header.Set("X-Bench-Req", strconv.FormatInt(req, 10))
	t0 := time.Now()
	resp, err := c.http.Do(hr)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if c.tr != nil {
		route := routeOf(hr, resp.Header.Get("X-Cache"))
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.calls == nil {
			c.calls = map[int64]map[string]float64{}
		}
		if c.calls[req] == nil {
			c.calls[req] = map[string]float64{}
		}
		c.calls[req][route] += time.Since(t0).Seconds()
	}
	return resp, data, err
}

// run executes one operation and records its latency and outcome.
func (c *client) run(r *request) {
	id := c.seq.Add(1)
	t0 := time.Now()
	r.status, r.body, r.err = c.op(r, id)
	r.latency = time.Since(t0).Seconds()
}

func (c *client) op(r *request, id int64) (int, []byte, error) {
	switch r.route {
	case "eval_miss", "eval_hit":
		body, _ := json.Marshal(server.EvalRequest{
			Experiment: missExperiment, Benches: []string{r.bench.Name}, Commits: r.commits,
		})
		resp, data, err := c.do("POST", "/v1/eval", body, id)
		if err != nil {
			return 0, nil, err
		}
		if want := r.route[len("eval_"):]; resp.Header.Get("X-Cache") != want {
			return resp.StatusCode, data, fmt.Errorf("X-Cache %q, want %q", resp.Header.Get("X-Cache"), want)
		}
		return resp.StatusCode, data, nil
	case "bound":
		q := url.Values{
			"bench": {r.bench.Name}, "policy": {r.policy.Flag()},
			"iqsize": {"64"}, "commits": {strconv.FormatUint(r.commits, 10)},
		}
		resp, data, err := c.do("GET", "/v1/bound?"+q.Encode(), nil, id)
		if err != nil {
			return 0, nil, err
		}
		return resp.StatusCode, data, nil
	case "sweep":
		return c.sweepToCSV(r, id)
	}
	return 0, nil, fmt.Errorf("unknown route %q", r.route)
}

// sweepToCSV submits a sweep job, follows its event stream to the
// terminal event and fetches the CSV.
func (c *client) sweepToCSV(r *request, id int64) (int, []byte, error) {
	pols := make([]string, len(sweepJobPolicies))
	for i, p := range sweepJobPolicies {
		pols[i] = p.Flag()
	}
	body, _ := json.Marshal(server.SweepRequest{
		Benches: []string{r.bench.Name}, Policies: pols, IQSizes: sweepJobIQ, Commits: r.commits,
	})
	resp, data, err := c.do("POST", "/v1/sweep", body, id)
	if err != nil {
		return 0, nil, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, data, nil
	}
	var acc server.SweepAccepted
	if err := json.Unmarshal(data, &acc); err != nil {
		return resp.StatusCode, data, err
	}
	if acc.Deduplicated {
		return resp.StatusCode, data, fmt.Errorf("sweep deduplicated onto %s", acc.ID)
	}
	resp, data, err = c.do("GET", "/v1/jobs/"+acc.ID+"/events", nil, id)
	if err != nil {
		return 0, nil, err
	}
	var last server.Event
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return resp.StatusCode, data, err
		}
	}
	if last.State != server.JobDone {
		return resp.StatusCode, data, fmt.Errorf("job %s ended %s", acc.ID, last.State)
	}
	resp, data, err = c.do("GET", "/v1/jobs/"+acc.ID+"/csv", nil, id)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

// runPhase sends reqs from maxProcs closed-loop clients: each sends its
// next request only when the previous one has completed.
func (c *client) runPhase(reqs []*request, workers int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				c.run(reqs[i])
			}
		}()
	}
	wg.Wait()
}

// session is one server under test with its clients and script.
type session struct {
	b      *bench
	srv    *server.Server
	ts     *httptest.Server
	c      *client
	mw     *middleware
	rng    *rand.Rand
	rounds []*round
	cycles []uint64 // simulated per round
}

func newSession(b *bench) *session {
	srv := server.New(server.Config{Workers: b.procs})
	mw := &middleware{next: srv}
	mw.tr.Store(b.tr)
	ts := httptest.NewServer(mw)
	tp := &http.Transport{MaxConnsPerHost: b.procs, MaxIdleConnsPerHost: b.procs}
	return &session{
		b: b, srv: srv, ts: ts, mw: mw,
		c:   &client{url: ts.URL, http: &http.Client{Transport: tp}, tr: b.tr},
		rng: rand.New(rand.NewSource(int64(b.opts.seed))),
	}
}

// close shuts the listener and the server down.
func (s *session) close() {
	s.c.http.CloseIdleConnections()
	s.ts.Close()
	if err := s.srv.Drain(context.Background()); err != nil {
		s.b.note("drain: %v", err)
	}
	s.srv.Close()
}

// round runs the next round of the script.
func (s *session) round() {
	rd := s.b.opts.newRound(s.rng, len(s.rounds))
	s.rounds = append(s.rounds, rd)
	c0 := core.CyclesSimulated()
	for _, ph := range rd.phases {
		s.c.runPhase(ph, s.b.procs)
	}
	s.cycles = append(s.cycles, core.CyclesSimulated()-c0)
}

// requests returns every request of the run's rounds with the given route.
func (s *session) requests(route string) []*request {
	var out []*request
	for _, rd := range s.rounds {
		for _, ph := range rd.phases {
			for _, r := range ph {
				if r.route == route {
					out = append(out, r)
				}
			}
		}
	}
	return out
}

// latencies returns the latencies of reqs in the given unit (seconds per
// unit).
func latencies(reqs []*request, unit float64) []float64 {
	xs := make([]float64, len(reqs))
	for i, r := range reqs {
		xs[i] = r.latency / unit
	}
	return xs
}

// verify checks every response against an untimed in-process reference:
// each miss body against experiments.Run, each hit against its miss, each
// sweep CSV against sweep.Grid.RunContext, each bound against
// static.Analyze.
func (s *session) verify(ctx context.Context) error {
	b := s.b
	ok := func(r *request) bool {
		if r.err != nil {
			b.note("%s %s/%d: %v", r.route, r.bench.Name, r.commits, r.err)
			return false
		}
		return r.status == http.StatusOK
	}
	misses := s.requests("eval_miss")
	want, err := par.Map(ctx, len(misses), b.procs, func(ctx context.Context, i int) ([]byte, error) {
		r := misses[i]
		benches := []spec.Benchmark{r.bench}
		suite := core.NewSuite(benches, r.commits)
		suite.Workers = 1
		var buf bytes.Buffer
		err := experiments.Run(ctx, &buf, missExperiment, experiments.Params{
			Suite: suite, Benches: benches, Commits: r.commits,
			PET: 512, RawFIT: 0.001, SimPoints: 4, Strikes: reproStrikes, Seed: 1, Jobs: 1,
		}, false)
		return buf.Bytes(), err
	})
	if err != nil {
		return err
	}
	for i, r := range misses {
		b.check(ok(r) && bytes.Equal(r.body, want[i]), "eval miss %s/%d", r.bench.Name, r.commits)
	}
	for _, r := range s.requests("eval_hit") {
		b.check(ok(r) && bytes.Equal(r.body, r.miss.body), "eval hit %s/%d", r.bench.Name, r.commits)
	}

	sweeps := s.requests("sweep")
	csvs, err := par.Map(ctx, len(sweeps), b.procs, func(ctx context.Context, i int) ([]byte, error) {
		r := sweeps[i]
		return runGrid(ctx, &sweep.Grid{
			Benches: []spec.Benchmark{r.bench}, Policies: sweepJobPolicies,
			IQSizes: sweepJobIQ, OutOfOrder: []bool{false}, Commits: r.commits, Workers: 1,
		})
	})
	if err != nil {
		return err
	}
	for i, r := range sweeps {
		b.check(ok(r) && bytes.Equal(r.body, csvs[i]), "sweep %s/%d", r.bench.Name, r.commits)
	}

	bounds := s.requests("bound")
	refs, err := par.Map(ctx, len(bounds), b.procs, func(_ context.Context, i int) (static.Bounds, error) {
		return boundOf(bounds[i])
	})
	if err != nil {
		return err
	}
	for i, r := range bounds {
		var got server.BoundResponse
		want := refs[i]
		b.check(ok(r) && json.Unmarshal(r.body, &got) == nil &&
			got.Bench == r.bench.Name && got.Commits == r.commits &&
			got.MinCycles == want.MinCycles && got.EstCycles == want.EstCycles &&
			server.BoundStruct(want.IQ) == got.IQ &&
			server.BoundStruct(want.FrontEnd) == got.FrontEnd &&
			server.BoundStruct(want.StoreBuffer) == got.StoreBuffer &&
			server.BoundStruct(want.RegFile) == got.RegFile,
			"bound %s/%v/%d", r.bench.Name, r.policy, r.commits)
	}
	return nil
}

// boundOf is the static analysis behind a bound query.
func boundOf(r *request) (static.Bounds, error) {
	return static.Analyze(r.bench.Params, r.commits, configs([]core.Policy{r.policy}, []int{64}, false)[0])
}

func runServe(ctx context.Context, b *bench) error {
	if err := b.measureSetup(true); err != nil {
		return err
	}
	s := newSession(b)
	err := b.measure(roundSeconds, func() error { s.round(); return nil })
	s.close()
	if err != nil {
		return err
	}
	s.setLatencies()
	return s.verify(ctx)
}

// traceServe runs rounds untraced for the run's measurement time, as
// runServe does, then one traced round: the middleware records a span per
// request and its handler time, from which the transport time is the
// client latency minus the handler time. It then re-enacts the traced
// round's simulations — eval misses and sweep jobs as batches — and its
// bound queries as static analyses, with a span around each layer; the
// batches must simulate exactly the traced round's cycles.
func traceServe(ctx context.Context, b *bench) error {
	b.zeroLayers()
	if err := b.measureSetup(true); err != nil {
		return err
	}
	tr := b.tr
	b.tr = nil
	s := newSession(b)
	m0 := memStats()
	if err := b.measure(roundSeconds, func() error { s.round(); return nil }); err != nil {
		s.close()
		return err
	}
	b.setRuntime(m0)
	untraced := b.metrics["wall_s"].Value
	b.set("core.sim_mcycles", float64(s.cycles[0])/1e6)
	s.setLatencies()

	b.tr, s.c.tr = tr, tr
	s.mw.tr.Store(tr)
	traced, _ := timeIt(func() error { s.round(); return nil })
	b.setOverhead(untraced, traced)
	s.mw.setRoutes(b, s.c)
	if err := s.setServerStats(); err != nil {
		s.close()
		return err
	}
	s.close()
	if err := s.verify(ctx); err != nil {
		return err
	}
	last := s.rounds[len(s.rounds)-1]
	cycles, err := b.reenactServe(ctx, last)
	if err != nil {
		return err
	}
	want := s.cycles[len(s.cycles)-1]
	b.check(cycles == want, "re-enacted cycles %d, traced round simulated %d", cycles, want)
	return nil
}

// setLatencies reports the percentiles of the rounds run so far, noting
// each route's median and tails with its sample count.
func (s *session) setLatencies() {
	lat := map[string][]float64{}
	for _, route := range []string{"eval_miss", "eval_hit", "sweep", "bound"} {
		xs := latencies(s.requests(route), 1e-3)
		s.b.note("%-9s n=%-5d p50=%.3fms p90=%.3fms p99=%.3fms",
			route, len(xs), median(xs), quantile(xs, 0.9), quantile(xs, 0.99))
		lat[route] = xs
	}
	b := s.b
	b.set("server.eval_miss_p50_ms", median(lat["eval_miss"]))
	b.set("server.eval_miss_p90_ms", quantile(lat["eval_miss"], 0.9))
	b.set("server.eval_hit_p50_us", median(lat["eval_hit"])*1e3)
	b.set("server.eval_hit_p99_us", quantile(lat["eval_hit"], 0.99)*1e3)
	b.set("server.bound_p50_ms", median(lat["bound"]))
	b.set("server.sweep_csv_p50_s", median(lat["sweep"])/1e3)
	b.set("server.eval_miss_n", float64(len(lat["eval_miss"])))
	b.set("server.eval_hit_n", float64(len(lat["eval_hit"])))
	b.set("server.bound_n", float64(len(lat["bound"])))
	b.set("server.sweep_n", float64(len(lat["sweep"])))
}

// setServerStats reports the server's own counters and the live heap at
// the end of the run.
func (s *session) setServerStats() error {
	b := s.b
	var mv map[string]any
	resp, data, err := s.c.do("GET", "/metrics", nil, 0)
	if err == nil && resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(data, &mv)
	}
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	num := func(k string) float64 { v, _ := mv[k].(float64); return v }
	hits, misses := num("cache_hits"), num("cache_misses")
	b.set("server.cache_hit_ratio", hits/(hits+misses))
	b.set("server.rejected", num("rejected"))
	b.set("server.jobs_retained", num("jobs_done")+num("jobs_failed")+num("jobs_interrupted")+
		num("jobs_in_flight")+num("jobs_queued"))
	runtime.GC()
	b.set("server.live_heap_mb_end", float64(memStats().HeapAlloc)/(1<<20))
	return nil
}

// reenactServe replays one round's simulations from public parts — each
// eval miss as Table 1's three policies batched over one decode, each
// sweep job as its four cells batched the same way — and its bound
// queries' static analyses, with spans around each layer. It returns the
// cycles the batches simulated.
func (b *bench) reenactServe(ctx context.Context, rd *round) (uint64, error) {
	tr := b.tr
	root := tr.start("serve.reenact", -1, 0)
	defer tr.stop(root)
	pool := make(chan *lanes, b.procs)
	for i := 0; i < b.procs; i++ {
		pool <- &lanes{}
	}
	var t tally
	batches := append(append([]*request{}, rd.phases[0]...), rd.phases[1]...)
	err := par.ForEach(ctx, len(batches), b.procs, func(ctx context.Context, i int) error {
		ls := <-pool
		defer func() { pool <- ls }()
		r := batches[i]
		cfgs := configs(reproBatches[0], nil, false)
		if r.route == "sweep" {
			cfgs = configs(sweepJobPolicies, sweepJobIQ, false)
		}
		_, err := ls.batch(ctx, tr, root, &t, r.bench.Params, r.commits, cfgs)
		return err
	})
	if err != nil {
		return 0, err
	}
	b.setLayers(&t)
	for _, r := range rd.phases[2] {
		id := tr.start("static.bound", root, 0)
		_, err := boundOf(r)
		tr.stop(id)
		if err != nil {
			return 0, err
		}
	}
	b.set("static.bound_s", tr.total("static.bound"))
	return t.inorderCycles + t.oooCycles, nil
}

// middleware wraps the server's ServeHTTP: with a tracer it records a
// span per request, named by route, and the handler's duration per
// request id.
type middleware struct {
	next http.Handler
	tr   atomic.Pointer[tracer] // read by server goroutines, set between rounds

	mu      sync.Mutex
	handler map[int64]map[string]float64 // request id → route → seconds
}

func (m *middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := m.tr.Load()
	if tr == nil {
		m.next.ServeHTTP(w, r)
		return
	}
	req, _ := strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64)
	t0 := time.Now()
	id := tr.start("server.request", -1, req)
	m.next.ServeHTTP(w, r)
	d := time.Since(t0).Seconds()
	route := routeOf(r, w.Header().Get("X-Cache"))
	tr.stopAs(id, "server."+route)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.handler == nil {
		m.handler = map[int64]map[string]float64{}
	}
	if m.handler[req] == nil {
		m.handler[req] = map[string]float64{}
	}
	m.handler[req][route] += d
}

// routeOf classifies a request for per-route percentiles.
func routeOf(r *http.Request, xcache string) string {
	p := r.URL.Path
	switch {
	case p == "/v1/eval":
		return "eval_" + xcache
	case p == "/v1/sweep":
		return "sweep"
	case p == "/v1/bound":
		return "bound"
	case strings.HasSuffix(p, "/events"):
		return "job_events"
	case strings.HasSuffix(p, "/csv"):
		return "job_csv"
	}
	return "other"
}

// setRoutes reports each route's median handler time and median transport
// time: the client latency of a request's calls on that route minus their
// handler time.
func (m *middleware) setRoutes(b *bench, c *client) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	handler, transport := map[string][]float64{}, map[string][]float64{}
	for req, routes := range m.handler {
		for route, d := range routes {
			handler[route] = append(handler[route], d*1e6)
			if lat, ok := c.calls[req][route]; ok {
				transport[route] = append(transport[route], (lat-d)*1e6)
			}
		}
	}
	for _, route := range serveRoutes {
		b.set("server.handler_p50_us."+route, median(handler[route]))
		b.set("server.transport_p50_us."+route, median(transport[route]))
	}
}
