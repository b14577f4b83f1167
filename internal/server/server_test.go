package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"softerror/internal/core"
	"softerror/internal/fleet"
	"softerror/internal/par"
	"softerror/internal/spec"
	"softerror/internal/sweep"
	"softerror/internal/workload"
)

// testCommits keeps simulations short; it matches the budget the repro and
// sweep command tests use.
const testCommits = 8000

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

// do runs one request through the handler and returns the recorder.
func do(s *Server, method, path string, body any) *httptest.ResponseRecorder {
	var rd *bytes.Reader
	if body != nil {
		b, _ := json.Marshal(body)
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// waitFor polls cond until true or the deadline lapses.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func evalBody(experiment string, csv bool) EvalRequest {
	return EvalRequest{
		Experiment: experiment,
		Benches:    []string{"gzip-graphic", "ammp"},
		Commits:    testCommits,
		CSV:        csv,
	}
}

func sweepBody(commits uint64) SweepRequest {
	return SweepRequest{
		Benches:  []string{"gzip-graphic"},
		Policies: []string{"baseline", "squash-l1"},
		Commits:  commits,
	}
}

func submitSweep(t *testing.T, s *Server, req SweepRequest) SweepAccepted {
	t.Helper()
	w := do(s, "POST", "/v1/sweep", req)
	if w.Code != http.StatusAccepted {
		t.Fatalf("sweep submit: status %d, body %s", w.Code, w.Body)
	}
	var acc SweepAccepted
	if err := json.Unmarshal(w.Body.Bytes(), &acc); err != nil {
		t.Fatalf("sweep accept body: %v", err)
	}
	return acc
}

func jobStatus(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	w := do(s, "GET", "/v1/jobs/"+id, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("job status: %d %s", w.Code, w.Body)
	}
	var st JobStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitTerminal(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	var st JobStatus
	waitFor(t, "job "+id+" terminal", func() bool {
		st = jobStatus(t, s, id)
		return st.State.terminal()
	})
	return st
}

// TestEvalCacheHitByteIdentity pins the cache contract: the second
// identical request is served from cache with the exact bytes of the
// first, and X-Cache says which path answered.
func TestEvalCacheHitByteIdentity(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, csv := range []bool{false, true} {
		first := do(s, "POST", "/v1/eval", evalBody("table1", csv))
		if first.Code != http.StatusOK {
			t.Fatalf("csv=%v: first eval: %d %s", csv, first.Code, first.Body)
		}
		if got := first.Header().Get("X-Cache"); got != "miss" {
			t.Errorf("csv=%v: first X-Cache = %q, want miss", csv, got)
		}
		second := do(s, "POST", "/v1/eval", evalBody("table1", csv))
		if second.Code != http.StatusOK {
			t.Fatalf("csv=%v: second eval: %d %s", csv, second.Code, second.Body)
		}
		if got := second.Header().Get("X-Cache"); got != "hit" {
			t.Errorf("csv=%v: second X-Cache = %q, want hit", csv, got)
		}
		if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
			t.Errorf("csv=%v: cache hit body differs from miss body", csv)
		}
	}
	if got := s.metrics.cacheHits.Value(); got != 2 {
		t.Errorf("cache_hits = %d, want 2", got)
	}
}

// TestEvalValidation pins the 400 surface of the POST endpoints. The sweep
// cases name fields SweepRequest does not have (cells run once, so there is
// no retry count or per-cell deadline): each must be a 400 naming the
// field, and must register no job.
func TestEvalValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name, path, body string
		want             string // in the error body, when set
	}{
		{"bad json", "/v1/eval", `{`, ""},
		{"unknown field", "/v1/eval", `{"experiment":"table1","bogus":1}`, ""},
		{"unknown experiment", "/v1/eval", `{"experiment":"nonsense"}`, ""},
		{"unknown bench", "/v1/eval", `{"experiment":"table1","benches":["nosuch"]}`, ""},
		{"second value", "/v1/eval", `{"experiment":"table1"} {}`, "trailing data"},
		{"sweep retries", "/v1/sweep", `{"policies":["baseline"],"retries":1}`, `unknown field \"retries\"`},
		{"sweep tasktimeout", "/v1/sweep", `{"policies":["baseline"],"tasktimeout":"30s"}`, `unknown field \"tasktimeout\"`},
		{"sweep both", "/v1/sweep",
			`{"benches":["mcf"],"policies":["baseline"],"iqsizes":[16],"tasktimeout":"1ns","retries":1073741824}`,
			`unknown field \"tasktimeout\"`},
	}
	for _, tc := range cases {
		req := httptest.NewRequest("POST", tc.path, strings.NewReader(tc.body))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, w.Code)
		}
		if !strings.Contains(w.Body.String(), tc.want) {
			t.Errorf("%s: body %s does not name %s", tc.name, w.Body, tc.want)
		}
	}
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	if jobs != 0 {
		t.Errorf("%d jobs registered by rejected sweep requests", jobs)
	}
}

// TestEvalOverflow429 saturates the eval gate with a blocked computation
// and checks the next distinct request is shed with 429 instead of queued.
func TestEvalOverflow429(t *testing.T) {
	release := make(chan struct{})
	par.SetChaos(func(ctx context.Context, i int) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	t.Cleanup(func() { par.SetChaos(nil) })

	s := newTestServer(t, Config{MaxEvals: 1})
	firstDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { firstDone <- do(s, "POST", "/v1/eval", evalBody("table1", false)) }()
	waitFor(t, "first eval in flight", func() bool {
		return s.metrics.evalsInFlight.Value() == 1
	})

	w := do(s, "POST", "/v1/eval", evalBody("breakdown", false))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow eval: status %d, want 429 (body %s)", w.Code, w.Body)
	}
	if got := s.metrics.rejected.Value(); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}

	close(release)
	if w := <-firstDone; w.Code != http.StatusOK {
		t.Fatalf("blocked eval after release: %d %s", w.Code, w.Body)
	}
}

// TestEvalRefusedFlightWaiter429 pins what a request waiting on a
// single-flighted miss gets when the full eval gate refused that miss's
// leader: the leader's 429 with Retry-After, counted in rejected, not a
// 500. The refused flight is planted already closed, as the leader leaves
// it, so nothing simulates.
func TestEvalRefusedFlightWaiter429(t *testing.T) {
	s := newTestServer(t, Config{})
	req := evalBody("table1", false)
	e, err := req.normalize()
	if err != nil {
		t.Fatal(err)
	}
	f := &flight{done: make(chan struct{}), ctype: e.contentType(), err: errEvalsFull}
	close(f.done)
	s.mu.Lock()
	s.flights[e.fingerprint()] = f
	s.mu.Unlock()

	for i := 1; i <= 2; i++ {
		w := do(s, "POST", "/v1/eval", req)
		if w.Code != http.StatusTooManyRequests || w.Header().Get("Retry-After") == "" {
			t.Fatalf("waiter on a refused flight: status %d, Retry-After %q; want 429 with Retry-After (body %s)",
				w.Code, w.Header().Get("Retry-After"), w.Body)
		}
		if got := s.metrics.rejected.Value(); got != int64(i) {
			t.Errorf("rejected = %d after %d refused waiters, want %d", got, i, i)
		}
	}
	if got := s.metrics.cacheMisses.Value(); got != 0 {
		t.Errorf("refused waiters simulated: cache_misses = %d", got)
	}
}

// TestEvalSingleFlight sends two concurrent identical cache misses and
// checks only one computation ran; the waiter shares its bytes.
func TestEvalSingleFlight(t *testing.T) {
	release := make(chan struct{})
	par.SetChaos(func(ctx context.Context, i int) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	t.Cleanup(func() { par.SetChaos(nil) })

	s := newTestServer(t, Config{})
	results := make(chan *httptest.ResponseRecorder, 2)
	go func() { results <- do(s, "POST", "/v1/eval", evalBody("table1", false)) }()
	waitFor(t, "first eval in flight", func() bool {
		return s.metrics.evalsInFlight.Value() == 1
	})
	go func() { results <- do(s, "POST", "/v1/eval", evalBody("table1", false)) }()
	waitFor(t, "second request joined the flight", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.flights) == 1
	})
	close(release)

	a, b := <-results, <-results
	if a.Code != http.StatusOK || b.Code != http.StatusOK {
		t.Fatalf("statuses %d, %d", a.Code, b.Code)
	}
	if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
		t.Error("single-flighted bodies differ")
	}
	if got := s.metrics.cacheMisses.Value(); got != 1 {
		t.Errorf("cache_misses = %d, want 1 (computation must be shared)", got)
	}
}

// TestSweepLifecycle runs a small grid to completion through the HTTP
// surface: accept, live events, status, and a CSV byte-identical to the
// library's own writer (the same bytes cmd/sweep writes).
func TestSweepLifecycle(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	acc := submitSweep(t, s, sweepBody(testCommits))
	if acc.Total != 2 {
		t.Fatalf("total = %d, want 2", acc.Total)
	}

	// Stream events until the terminal one; seq must be dense from 0 and
	// the stream must end at a terminal state.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + acc.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var last Event
	sc := bufio.NewScanner(resp.Body)
	for i := 0; sc.Scan(); i++ {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if last.Seq != i {
			t.Fatalf("event %d has seq %d", i, last.Seq)
		}
	}
	if !last.State.terminal() {
		t.Fatalf("stream ended at %q, want terminal", last.State)
	}
	if last.State != JobDone || last.Done != 2 {
		t.Fatalf("terminal event %+v, want done 2/2", last)
	}

	st := jobStatus(t, s, acc.ID)
	if st.State != JobDone || st.Done != st.Total {
		t.Fatalf("status %+v, want done", st)
	}

	// The served CSV must match the shared writer over a direct run.
	w := do(s, "GET", "/v1/jobs/"+acc.ID+"/csv", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("csv: %d %s", w.Code, w.Body)
	}
	g := directGrid(t, testCommits)
	rows, err := g.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := sweep.WriteCSV(&want, rows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
		t.Errorf("served CSV differs from sweep.WriteCSV:\nserved:\n%s\nwant:\n%s", w.Body, want.String())
	}
}

// directGrid mirrors sweepBody as a library value.
func directGrid(t *testing.T, commits uint64) *sweep.Grid {
	t.Helper()
	benches, err := spec.ParseList("gzip-graphic")
	if err != nil {
		t.Fatal(err)
	}
	return &sweep.Grid{
		Benches:    benches,
		Policies:   []core.Policy{core.PolicyBaseline, core.PolicySquashL1},
		IQSizes:    []int{64},
		OutOfOrder: []bool{false},
		Commits:    commits,
		Workers:    2,
	}
}

// TestSweepDedup: the identical grid resubmitted while its job is live
// returns the existing job instead of burning a second campaign, and is
// echoed without pricing the grid again.
func TestSweepDedup(t *testing.T) {
	s := newTestServer(t, Config{})
	a := submitSweep(t, s, sweepBody(testCommits))
	b := submitSweep(t, s, sweepBody(testCommits))
	if b.ID != a.ID || !b.Deduplicated {
		t.Fatalf("resubmission got %+v, want dedup onto %s", b, a.ID)
	}
	waitTerminal(t, s, a.ID)
	if got := s.metrics.sweepsPriced.Value(); got != 1 {
		t.Fatalf("sweeps_priced = %d after a deduplicated resubmission, want 1", got)
	}
}

// TestSweepPricedOnce: an admitted job is priced exactly once over its
// lifetime — at admission, not again when it runs — and its 202 carries
// the grid's static price.
func TestSweepPricedOnce(t *testing.T) {
	s := newTestServer(t, Config{})
	acc := submitSweep(t, s, sweepBody(testCommits))
	if st := waitTerminal(t, s, acc.ID); st.State != JobDone {
		t.Fatalf("job ended %s, want done", st.State)
	}
	if got := s.metrics.sweepsPriced.Value(); got != 1 {
		t.Fatalf("sweeps_priced = %d over one job's lifetime, want 1", got)
	}
	est, ok := directGrid(t, testCommits).EstimateCells()
	if !ok {
		t.Fatal("grid not priceable")
	}
	var sum uint64
	for _, c := range est {
		sum += c
	}
	if !acc.Priced || acc.EstimatedMcycles != float64(sum)/1e6 {
		t.Fatalf("202 %+v, want priced at %v Mcycles", acc, float64(sum)/1e6)
	}
}

// TestSweepCostAdmission: the static price is an admission pre-filter —
// grids over the MaxEstMcycles budget are rejected with 422 (carrying the
// offending estimate) before any cell simulates, counted by the
// sweeps_rejected_cost expvar, while in-budget submissions carry an
// explicit priced flag alongside the estimate.
func TestSweepCostAdmission(t *testing.T) {
	s := newTestServer(t, Config{MaxEstMcycles: 1e-6})
	w := do(s, "POST", "/v1/sweep", sweepBody(testCommits))
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("over-budget sweep: status %d, want 422 (body %s)", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "estimated Mcycles") {
		t.Fatalf("422 body lacks the offending estimate: %s", w.Body)
	}
	if got := s.metrics.rejectedCost.Value(); got != 1 {
		t.Fatalf("sweeps_rejected_cost = %d, want 1", got)
	}
	if got := s.metrics.jobsQueued.Value(); got != 0 {
		t.Fatalf("rejected sweep queued a job (jobs_queued = %d)", got)
	}

	big := newTestServer(t, Config{MaxEstMcycles: 1e12})
	acc := submitSweep(t, big, sweepBody(testCommits))
	if !acc.Priced || acc.EstimatedMcycles <= 0 {
		t.Fatalf("accepted sweep %+v, want priced with a positive estimate", acc)
	}
	waitTerminal(t, big, acc.ID)
}

// TestSweepUnpriceableCommitsRejected pins that a commit count too large
// to price cannot slip past the admission budget as an unpriced grid: the
// grid decoder refuses it with 400 before pricing or queueing.
func TestSweepUnpriceableCommitsRejected(t *testing.T) {
	s := newTestServer(t, Config{MaxEstMcycles: 1e-6})
	w := do(s, "POST", "/v1/sweep", sweepBody(1<<32))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("sweep with 2^32 commits: status %d, want 400 (body %s)", w.Code, w.Body)
	}
	if got := s.metrics.jobsQueued.Value(); got != 0 {
		t.Fatalf("rejected sweep queued a job (jobs_queued = %d)", got)
	}
}

// TestCommitsOverCapRejected pins the caps on commits per run and on IQ
// size: a count past core.MaxServedCommits, or a queue past
// core.MaxServedIQSize, is a 400 on every route that takes one, so no
// request reaches the stream reservation or queue ring its value would
// make (which at the larger values below the runtime cannot reserve and
// dies on). Each cap itself is accepted by each route's decoder, called
// directly so that nothing simulates.
func TestCommitsOverCapRejected(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, n := range []uint64{core.MaxServedCommits + 1, 1 << 31, 1<<32 - 1, 1e12} {
		for _, r := range []struct{ method, target, body string }{
			{"POST", "/v1/eval", fmt.Sprintf(`{"experiment":"table1","benches":["mcf"],"commits":%d}`, n)},
			{"POST", "/v1/sweep", fmt.Sprintf(`{"benches":["mcf"],"policies":["baseline"],"commits":%d}`, n)},
			{"POST", "/v1/lease", fmt.Sprintf(`{"lease":"l","grid":{"benches":["mcf"],"policies":["baseline"],"commits":%d},"ranges":[{"lo":0,"hi":1}]}`, n)},
			{"GET", fmt.Sprintf("/v1/bound?bench=mcf&commits=%d", n), ""},
		} {
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest(r.method, r.target, strings.NewReader(r.body)))
			if w.Code != http.StatusBadRequest {
				t.Errorf("%s %s with %d commits: status %d, want 400 (body %.200s)", r.method, r.target, n, w.Code, w.Body)
			}
		}
	}
	for _, iq := range []int{core.MaxServedIQSize + 1, 1 << 20, 1 << 30} {
		for _, r := range []struct{ method, target, body string }{
			{"POST", "/v1/sweep", fmt.Sprintf(`{"benches":["mcf"],"policies":["baseline"],"iqsizes":[16,%d],"commits":1000}`, iq)},
			{"POST", "/v1/lease", fmt.Sprintf(`{"lease":"l","grid":{"benches":["mcf"],"policies":["baseline"],"iqsizes":[%d],"commits":1000},"ranges":[{"lo":0,"hi":1}]}`, iq)},
			{"GET", fmt.Sprintf("/v1/bound?bench=mcf&iqsize=%d", iq), ""},
		} {
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest(r.method, r.target, strings.NewReader(r.body)))
			if w.Code != http.StatusBadRequest {
				t.Errorf("%s %s with IQ size %d: status %d, want 400 (body %.200s)", r.method, r.target, iq, w.Code, w.Body)
			}
		}
	}
	if got := s.metrics.jobsQueued.Value(); got != 0 {
		t.Errorf("rejected sweeps queued %d jobs", got)
	}

	const max = core.MaxServedCommits
	if e, err := (&EvalRequest{Experiment: "table1", Benches: []string{"mcf"}, Commits: max}).normalize(); err != nil || e.commits != max {
		t.Errorf("eval at the cap: commits %d, err %v; want %d accepted", e.commits, err, max)
	}
	if g, err := s.buildGrid(SweepRequest{Benches: []string{"mcf"}, Policies: []string{"baseline"}, Commits: max}); err != nil || g.Commits != max {
		t.Errorf("sweep or lease grid at the cap: err %v; want %d commits accepted", err, max)
	}
	if b, err := parseBoundQuery(httptest.NewRequest("GET", fmt.Sprintf("/v1/bound?bench=mcf&commits=%d", max), nil)); err != nil || b.commits != max {
		t.Errorf("bound at the cap: commits %d, err %v; want %d accepted", b.commits, err, max)
	}
	const maxIQ = core.MaxServedIQSize
	if g, err := s.buildGrid(SweepRequest{Benches: []string{"mcf"}, Policies: []string{"baseline"}, IQSizes: []int{maxIQ}}); err != nil || g.IQSizes[0] != maxIQ {
		t.Errorf("sweep or lease grid at the IQ cap: err %v; want IQ size %d accepted", err, maxIQ)
	}
	if b, err := parseBoundQuery(httptest.NewRequest("GET", fmt.Sprintf("/v1/bound?bench=mcf&iqsize=%d", maxIQ), nil)); err != nil || b.iqSize != maxIQ {
		t.Errorf("bound at the IQ cap: iqsize %d, err %v; want %d accepted", b.iqSize, err, maxIQ)
	}
}

// TestBodyOverLimit413 pins the request body limit: a POST body past
// maxBodyBytes is refused with 413 on every POST route, whether the excess
// sits inside the JSON value or after it, and nothing is admitted.
func TestBodyOverLimit413(t *testing.T) {
	co := fleet.NewCoordinator(fleet.Config{})
	t.Cleanup(co.Close)
	s := newTestServer(t, Config{Fleet: co})
	pad := strings.Repeat(" ", 2<<20)
	for _, r := range []struct{ path, body string }{
		{"/v1/eval", `{"experiment":"table2","benches":["mcf"],"commits":8000}`},
		{"/v1/sweep", `{"benches":["mcf"],"policies":["baseline"],"commits":8000}`},
		{"/v1/lease", `{"lease":"l","grid":{"benches":["mcf"],"policies":["baseline"],"commits":8000},"ranges":[{"lo":0,"hi":1}]}`},
		{"/v1/fleet/register", `{"addr":"127.0.0.1:9999"}`},
	} {
		for _, body := range []string{"{" + pad + r.body[1:], r.body + pad} {
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest("POST", r.path, strings.NewReader(body)))
			if w.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("POST %s with a %d-byte body: status %d, want 413 (body %.200s)", r.path, len(body), w.Code, w.Body)
			}
		}
	}
	if n := co.NumWorkers(); n != 0 || s.metrics.jobsQueued.Value() != 0 {
		t.Errorf("oversized bodies admitted %d workers and %d jobs", n, s.metrics.jobsQueued.Value())
	}
}

// TestSweepQueueOverflow fills the single slot and the single queue seat,
// then checks the third distinct grid is rejected with 429.
func TestSweepQueueOverflow(t *testing.T) {
	release := make(chan struct{})
	par.SetChaos(func(ctx context.Context, i int) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	t.Cleanup(func() { par.SetChaos(nil) })

	s := newTestServer(t, Config{MaxJobs: 1, MaxQueue: 1})
	running := submitSweep(t, s, sweepBody(testCommits))
	waitFor(t, "first job running", func() bool {
		return s.metrics.jobsInFlight.Value() == 1
	})
	queued := submitSweep(t, s, sweepBody(testCommits+1000))

	w := do(s, "POST", "/v1/sweep", sweepBody(testCommits+2000))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("third sweep: status %d, want 429 (body %s)", w.Code, w.Body)
	}

	close(release)
	for _, id := range []string{running.ID, queued.ID} {
		if st := waitTerminal(t, s, id); st.State != JobDone {
			t.Errorf("job %s ended %q, want done", id, st.State)
		}
	}
}

// TestDrainInterruptsAndResumes is the drain acceptance test: a running
// job is interrupted at drain, its completed cells survive in the
// checkpoint, no accepted job is dropped (every job ends terminal), and
// resubmitting the identical grid on a fresh server resumes and finishes
// with the exact bytes of an uninterrupted run. The grid spans two
// benchmarks, so it runs as two batches: one lands, the other hangs.
func TestDrainInterruptsAndResumes(t *testing.T) {
	dir := t.TempDir()
	req := sweepBody(testCommits)
	req.Benches = []string{"gzip-graphic", "ammp"}
	batch0Done := make(chan struct{})
	var once sync.Once
	par.SetChaos(func(ctx context.Context, i int) error {
		if i == 0 {
			once.Do(func() { close(batch0Done) })
			return nil // batch 0 completes and lands in the checkpoint
		}
		<-ctx.Done() // batch 1 hangs until drain cancels the job
		return ctx.Err()
	})
	t.Cleanup(func() { par.SetChaos(nil) })

	s := newTestServer(t, Config{CheckpointDir: dir})
	acc := submitSweep(t, s, req)
	<-batch0Done
	waitFor(t, "batch 0 checkpointed", func() bool {
		return jobStatus(t, s, acc.ID).Done >= 1
	})

	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := jobStatus(t, s, acc.ID)
	if st.State != JobInterrupted {
		t.Fatalf("after drain job is %q, want interrupted", st.State)
	}
	if st.Checkpoint == "" {
		t.Fatal("interrupted job reports no checkpoint")
	}
	if st.Done < 1 || st.Done >= st.Total {
		t.Fatalf("interrupted job holds %d of %d cells; want a strict, non-empty subset", st.Done, st.Total)
	}
	// Drained servers reject new work.
	if w := do(s, "POST", "/v1/eval", evalBody("table1", false)); w.Code != http.StatusServiceUnavailable {
		t.Errorf("eval during drain: %d, want 503", w.Code)
	}
	if w := do(s, "POST", "/v1/sweep", sweepBody(testCommits)); w.Code != http.StatusServiceUnavailable {
		t.Errorf("sweep during drain: %d, want 503", w.Code)
	}
	if w := do(s, "GET", "/healthz", nil); w.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: %d, want 503", w.Code)
	}

	// Fresh server, same checkpoint dir, chaos cleared: the identical grid
	// resumes from the surviving cell and finishes byte-identically to an
	// uninterrupted run.
	par.SetChaos(nil)
	s2 := newTestServer(t, Config{CheckpointDir: dir})
	acc2 := submitSweep(t, s2, req)
	if fin := waitTerminal(t, s2, acc2.ID); fin.State != JobDone {
		t.Fatalf("resumed job ended %q, want done", fin.State)
	}
	w := do(s2, "GET", "/v1/jobs/"+acc2.ID+"/csv", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("resumed csv: %d %s", w.Code, w.Body)
	}
	g, err := s2.buildGrid(req)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := g.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := sweep.WriteCSV(&want, rows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
		t.Error("resumed run's CSV differs from an uninterrupted run")
	}
}

// TestDrainWaitsWithoutCheckpoint: with no checkpoint dir, drain lets the
// accepted job finish naturally — it ends done, not interrupted.
func TestDrainWaitsWithoutCheckpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	acc := submitSweep(t, s, sweepBody(testCommits))
	dctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := jobStatus(t, s, acc.ID); st.State != JobDone {
		t.Fatalf("after drain job is %q, want done", st.State)
	}
}

// TestEventsReplayAfterCompletion: reconnecting to a finished job's event
// stream replays the full history and terminates.
func TestEventsReplayAfterCompletion(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	acc := submitSweep(t, s, sweepBody(testCommits))
	waitTerminal(t, s, acc.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + acc.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	if len(events) < 3 { // queued, running, ..., done
		t.Fatalf("replay returned %d events, want at least 3", len(events))
	}
	if events[0].State != JobQueued || !events[len(events)-1].State.terminal() {
		t.Fatalf("replay spans %q..%q, want queued..terminal",
			events[0].State, events[len(events)-1].State)
	}
}

// TestUnknownJob404s.
func TestUnknownJob404s(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/events", "/v1/jobs/nope/csv"} {
		if w := do(s, "GET", path, nil); w.Code != http.StatusNotFound {
			t.Errorf("%s: %d, want 404", path, w.Code)
		}
	}
}

// TestMetricsEndpoint: the expvar map renders as JSON and carries the
// advertised keys, and the stream counters see the store: a second eval of
// the same benchmarks at another commit target finds their decoded streams
// kept, where a per-run decode would have decoded them again.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	metrics := func() map[string]any {
		t.Helper()
		w := do(s, "GET", "/metrics", nil)
		if w.Code != http.StatusOK {
			t.Fatalf("metrics: %d", w.Code)
		}
		var m map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
			t.Fatalf("metrics is not JSON: %v\n%s", err, w.Body)
		}
		return m
	}
	do(s, "POST", "/v1/eval", evalBody("table1", false))
	m := metrics()
	for _, key := range []string{
		"requests", "rejected", "cache_hits", "cache_misses",
		"evals_in_flight", "jobs_in_flight", "jobs_queued",
		"jobs_done", "jobs_failed", "jobs_interrupted",
		"cache_entries", "cache_bytes", "mcycles_simulated", "mcycles_per_sec",
		"streams_decoded", "stream_hits", "stream_bytes",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
	if m["mcycles_simulated"].(float64) <= 0 {
		t.Error("mcycles_simulated did not advance after an eval")
	}
	if m["stream_bytes"].(float64) <= 0 {
		t.Error("stream_bytes is zero after an eval: the store kept nothing")
	}

	again := evalBody("table1", false)
	again.Commits++
	if w := do(s, "POST", "/v1/eval", again); w.Code != http.StatusOK {
		t.Fatalf("second eval: %d %s", w.Code, w.Body)
	}
	n := metrics()
	if d := n["streams_decoded"].(float64) - m["streams_decoded"].(float64); d != 0 {
		t.Errorf("an eval of the same benchmarks at another commit target decoded %v streams, want 0", d)
	}
	if h := n["stream_hits"].(float64) - m["stream_hits"].(float64); h < float64(len(again.Benches)) {
		t.Errorf("an eval of the same benchmarks at another commit target counted %v stream hits, want >= %d", h, len(again.Benches))
	}
}

// TestStreamBudget: a daemon raises the decoded-stream store's budget for
// its traffic, and caps it at a quarter of a runtime memory limit.
func TestStreamBudget(t *testing.T) {
	st := workload.Streams()
	newTestServer(t, Config{})
	if got := st.Budget(); got != streamBytes {
		t.Errorf("store budget %d with no memory limit, want %d", got, streamBytes)
	}
	old := debug.SetMemoryLimit(100 << 20)
	t.Cleanup(func() {
		debug.SetMemoryLimit(old)
		st.SetBudget(streamBudget())
	})
	newTestServer(t, Config{})
	if got := st.Budget(); got != 25<<20 {
		t.Errorf("store budget %d under a 100 MiB limit, want a quarter of it", got)
	}
}

// TestConcurrentLoad hammers the full surface from many goroutines; run
// under -race this is the data-race acceptance test. Every response must
// be a deliberate status (200/202/429), never a 5xx.
func TestConcurrentLoad(t *testing.T) {
	s := newTestServer(t, Config{MaxJobs: 2, MaxQueue: 2, MaxEvals: 2})
	var wg sync.WaitGroup
	var mu sync.Mutex
	bad := map[int]int{}
	evals := []EvalRequest{evalBody("table1", false), evalBody("table1", true), evalBody("breakdown", false)}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				var w *httptest.ResponseRecorder
				switch i % 3 {
				case 0:
					w = do(s, "POST", "/v1/eval", evals[(g+i)%len(evals)])
				case 1:
					w = do(s, "POST", "/v1/sweep", sweepBody(testCommits+uint64(g%2)*1000))
				default:
					w = do(s, "GET", "/metrics", nil)
				}
				switch w.Code {
				case http.StatusOK, http.StatusAccepted, http.StatusTooManyRequests:
				default:
					mu.Lock()
					bad[w.Code]++
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	if len(bad) != 0 {
		t.Fatalf("unexpected status codes under load: %v", bad)
	}
	// Let accepted jobs settle so Close doesn't race the runners.
	dctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain after load: %v", err)
	}
}

// TestCacheEviction pins the byte-budget LRU behaviour.
func TestCacheEviction(t *testing.T) {
	c := NewCache(10)
	c.Put("a", "t", []byte("aaaa"))
	c.Put("b", "t", []byte("bbbb"))
	if _, _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted too early")
	}
	// a is now most recent; adding c (4 bytes) must evict b.
	c.Put("c", "t", []byte("cccc"))
	if _, _, ok := c.Get("b"); ok {
		t.Error("b not evicted")
	}
	if _, _, ok := c.Get("a"); !ok {
		t.Error("a (recently used) evicted")
	}
	if c.Bytes() > 10 {
		t.Errorf("cache over budget: %d bytes", c.Bytes())
	}
	// Oversize bodies are not cached.
	c.Put("huge", "t", bytes.Repeat([]byte("x"), 11))
	if _, _, ok := c.Get("huge"); ok {
		t.Error("oversize body cached")
	}
}

// TestJobIDFormat pins the serving-handle format the docs advertise.
func TestJobIDFormat(t *testing.T) {
	s := newTestServer(t, Config{})
	acc := submitSweep(t, s, sweepBody(testCommits))
	if want := fmt.Sprintf("job-%06d", 1); acc.ID != want {
		t.Errorf("first job id %q, want %q", acc.ID, want)
	}
	waitTerminal(t, s, acc.ID)
}
