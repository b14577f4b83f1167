package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"softerror/internal/checkpoint"
	"softerror/internal/core"
	"softerror/internal/par"
	"softerror/internal/spec"
	"softerror/internal/sweep"
)

func jsonDecode(r *http.Request, v any) error { return json.NewDecoder(r.Body).Decode(v) }

func jsonEncode(w http.ResponseWriter, v any) { json.NewEncoder(w).Encode(v) }

// testGrid builds a small real grid through the wire spec, exactly as a
// worker would.
func testGrid(t *testing.T, sp GridSpec) *sweep.Grid {
	t.Helper()
	g, err := sp.Build()
	if err != nil {
		t.Fatalf("Build(%+v): %v", sp, err)
	}
	return g
}

func TestSpecRoundTrip(t *testing.T) {
	sp := GridSpec{
		Benches:    []string{"gzip-graphic", "mcf"},
		Policies:   []string{"baseline", "squash-l1"},
		IQSizes:    []int{16, 64},
		OutOfOrder: []bool{false, true},
		Commits:    5000,
	}
	g := testGrid(t, sp)
	back := testGrid(t, SpecOf(g))
	if got, want := back.Fingerprint(), g.Fingerprint(); got != want {
		t.Fatalf("SpecOf∘Build drifts the fingerprint: %s vs %s", got, want)
	}
	if !reflect.DeepEqual(SpecOf(back), SpecOf(g)) {
		t.Fatalf("SpecOf not stable across a round trip: %+v vs %+v", SpecOf(back), SpecOf(g))
	}
}

func TestGridSpecBuildRejects(t *testing.T) {
	cases := []GridSpec{
		{},
		{Benches: []string{"mcf"}},
		{Benches: []string{"nope"}, Policies: []string{"baseline"}},
		{Benches: []string{"mcf"}, Policies: []string{"nope"}},
		{Benches: []string{"mcf"}, Policies: []string{"baseline"}, IQSizes: []int{0}},
		{Benches: []string{"mcf"}, Policies: []string{"baseline"}, Commits: core.MaxServedCommits + 1},
	}
	for _, sp := range cases {
		if _, err := sp.Build(); !errors.Is(err, ErrBadGrid) {
			t.Errorf("Build(%+v) = %v, want ErrBadGrid", sp, err)
		}
	}
	capped := GridSpec{Benches: []string{"mcf"}, Policies: []string{"baseline"}, Commits: core.MaxServedCommits}
	if _, err := capped.Build(); err != nil {
		t.Errorf("Build(%+v) = %v, want the cap itself accepted", capped, err)
	}
}

func TestLeaseValidateTyped(t *testing.T) {
	const size = 10
	cases := []struct {
		ranges []Range
		want   error
	}{
		{nil, ErrEmptyLease},
		{[]Range{}, ErrEmptyLease},
		{[]Range{{2, 2}}, ErrEmptyLease},
		{[]Range{{3, 1}}, ErrInvertedRange},
		{[]Range{{-1, 2}}, ErrInvertedRange},
		{[]Range{{8, 11}}, ErrRangeBounds},
		{[]Range{{0, 3}, {2, 5}}, ErrRangeOverlap},
		{[]Range{{4, 6}, {0, 2}}, ErrRangeOverlap},
		{[]Range{{0, 3}, {5, 10}}, nil},
	}
	for _, c := range cases {
		err := LeaseRequest{Lease: "t", Ranges: c.ranges}.Validate(size)
		if c.want == nil {
			if err != nil {
				t.Errorf("Validate(%v) = %v, want nil", c.ranges, err)
			}
		} else if !errors.Is(err, c.want) {
			t.Errorf("Validate(%v) = %v, want %v", c.ranges, err, c.want)
		}
	}
}

func TestRegisterValidateTyped(t *testing.T) {
	for _, bad := range []string{
		"", "localhost", "localhost:0", "localhost:70000", "localhost:abc",
		"http://localhost:8081", "host:80/path", "host name:80", ":8080",
		"#:1", "127.0.0.1:8081?x=1", "user@host:80", "host\n:80",
	} {
		if err := (RegisterRequest{Addr: bad}).Validate(); !errors.Is(err, ErrBadAddr) {
			t.Errorf("Validate(%q) = %v, want ErrBadAddr", bad, err)
		}
	}
	for _, good := range []string{"127.0.0.1:8081", "[::1]:9", "worker-3.fleet.internal:443"} {
		if err := (RegisterRequest{Addr: good}).Validate(); err != nil {
			t.Errorf("Validate(%q) = %v, want nil", good, err)
		}
	}
}

func TestRangesOfCompression(t *testing.T) {
	cases := []struct {
		cells []int
		want  []Range
	}{
		{nil, nil},
		{[]int{3}, []Range{{3, 4}}},
		{[]int{0, 1, 2}, []Range{{0, 3}}},
		{[]int{0, 2, 3, 7}, []Range{{0, 1}, {2, 4}, {7, 8}}},
	}
	for _, c := range cases {
		if got := rangesOf(c.cells); !reflect.DeepEqual(got, c.want) {
			t.Errorf("rangesOf(%v) = %v, want %v", c.cells, got, c.want)
		}
	}
}

// TestPartitionContiguous pins the lease layout: the pending cells, in
// cell order, cut into runs of at most LeaseCells. On a benchmark-major
// grid that keeps each benchmark's cells in as few leases as possible, and
// each (lease, benchmark) pair is a separate batch on the worker.
func TestPartitionContiguous(t *testing.T) {
	sp := GridSpec{Benches: spec.Names(), Policies: []string{"baseline", "squash-l1", "squash-l0"}}
	g := testGrid(t, sp)
	if len(g.Benches) != 26 || g.Size() != 78 {
		t.Fatalf("roster grid has %d benchmarks, %d cells; want 26, 78", len(g.Benches), g.Size())
	}
	perBench := g.Size() / len(g.Benches)
	c := &Coordinator{cfg: Config{LeaseCells: 4}.withDefaults()}

	all := make([]int, g.Size())
	for i := range all {
		all[i] = i
	}
	var gappy []int
	for _, i := range all {
		if i%7 != 3 && (i < 20 || i > 30) {
			gappy = append(gappy, i)
		}
	}
	for _, tc := range []struct {
		name    string
		pending []int
		pairs   int
	}{
		{"full grid", all, 39},
		{"restored gaps", gappy, -1},
	} {
		leases := c.partition(tc.pending)
		var covered []int
		pairs := 0
		for _, l := range leases {
			if n := len(l.cells); n < 1 || n > 4 {
				t.Fatalf("%s: lease %s has %d cells, want 1..4", tc.name, l.id, n)
			}
			start := len(covered)
			if !reflect.DeepEqual(l.cells, tc.pending[start:start+len(l.cells)]) {
				t.Fatalf("%s: lease %s holds %v, not the next run of pending cells", tc.name, l.id, l.cells)
			}
			if got := (LeaseRequest{Ranges: l.ranges}).Cells(); !reflect.DeepEqual(got, l.cells) {
				t.Fatalf("%s: lease %s ranges %v encode %v, want %v", tc.name, l.id, l.ranges, got, l.cells)
			}
			covered = append(covered, l.cells...)
			benches := map[int]bool{}
			for _, i := range l.cells {
				benches[i/perBench] = true
			}
			pairs += len(benches)
		}
		if !reflect.DeepEqual(covered, tc.pending) {
			t.Fatalf("%s: leases cover %v, want the pending cells %v once each, in order", tc.name, covered, tc.pending)
		}
		if tc.pairs >= 0 && pairs != tc.pairs {
			t.Fatalf("%s: %d (lease, benchmark) pairs, want %d", tc.name, pairs, tc.pairs)
		}
	}
}

// crashPlan is a per-worker explicit ChaosFunc: one named worker fails
// every lease delivery.
func crashPlan(dead string) ChaosFunc {
	return func(worker string, r *http.Request) Fault {
		if worker == dead && r.URL.Path == "/v1/lease" {
			return Fault{Kind: FaultCrash}
		}
		return Fault{}
	}
}

func fastConfig() Config {
	return Config{
		LeaseCells:     2,
		LeaseTimeout:   5 * time.Second,
		HeartbeatEvery: 20 * time.Millisecond,
	}
}

func smallSpec() GridSpec {
	return GridSpec{
		Benches:  []string{"mcf"},
		Policies: []string{"baseline"},
		IQSizes:  []int{16, 32, 64},
		Commits:  400,
	}
}

func localCSV(t *testing.T, sp GridSpec) []byte {
	t.Helper()
	rows, err := testGrid(t, sp).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sweep.WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCoordinatorLocalFallbackNoWorkers(t *testing.T) {
	co := NewCoordinator(fastConfig())
	defer co.Close()
	sp := smallSpec()
	rows, err := co.Run(context.Background(), testGrid(t, sp), nil, nil)
	if err != nil {
		t.Fatalf("Run with zero workers: %v", err)
	}
	var buf bytes.Buffer
	if err := sweep.WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), localCSV(t, sp)) {
		t.Fatal("zero-worker fleet run differs from a local run")
	}
	if snap := co.Snapshot(); snap.LocalFallbacks != 1 {
		t.Fatalf("LocalFallbacks = %d, want 1", snap.LocalFallbacks)
	}
}

// twoBenchSpec is smallSpec over two benchmarks with two policies: twelve
// cells in two batch groups, mcf's cells 0..5 and gzip-graphic's 6..11.
func twoBenchSpec() GridSpec {
	sp := smallSpec()
	sp.Benches = []string{"mcf", "gzip-graphic"}
	sp.Policies = []string{"baseline", "squash-l1"}
	return sp
}

// TestCoordinatorLocalFallbackBlamesCells resumes a collect-policy grid
// on a coordinator with no workers, so the pending cells run locally
// through RunIndices. The chaos hook poisons the first batch of that
// pending list, mcf's pending cells at positions 0..3; the error must name
// those grid cells, since the server turns it into the job's skip set and
// error text.
func TestCoordinatorLocalFallbackBlamesCells(t *testing.T) {
	sp := twoBenchSpec()
	g := testGrid(t, sp)
	g.OnError = par.Collect
	want, err := testGrid(t, sp).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	ck := checkpoint.New[sweep.Row](filepath.Join(t.TempDir(), "grid.ckpt"), "sweep", g.Fingerprint(), g.Size())
	for _, i := range []int{0, 2, 6} {
		if err := ck.Put(i, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	pending := []int{1, 3, 4, 5, 7, 8, 9, 10, 11}
	poisoned := map[int]bool{1: true, 3: true, 4: true, 5: true}
	par.SetChaos(func(_ context.Context, index int) error {
		if index == 0 {
			panic("chaos: poisoned fallback batch")
		}
		return nil
	})
	t.Cleanup(func() { par.SetChaos(nil) })

	co := NewCoordinator(fastConfig())
	defer co.Close()
	_, err = co.Run(context.Background(), g, ck, nil)
	var es par.Errors
	if !errors.As(err, &es) {
		t.Fatalf("err = %v (%T), want par.Errors", err, err)
	}
	if got := fmt.Sprint(es.Indices()); got != "[1 3 4 5]" {
		t.Fatalf("blamed %s, want mcf's pending cells [1 3 4 5]", got)
	}
	for _, i := range pending {
		if row, ok := ck.Get(i); ok == poisoned[i] || ok && row != want[i] {
			t.Errorf("cell %d: checkpointed %v %+v, want only the unpoisoned cells, equal to a local run", i, ok, row)
		}
	}
}

// TestCoordinatorCollectKeepsValidRows runs a collect-policy grid on a
// coordinator with no workers while the chaos hook poisons one batch,
// gzip-graphic's. The coordinator must return what a local run returns:
// every unpoisoned cell's row, and an error blaming the poisoned batch's
// cells.
func TestCoordinatorCollectKeepsValidRows(t *testing.T) {
	sp := twoBenchSpec()
	par.SetChaos(func(_ context.Context, index int) error {
		if index == 1 {
			panic("chaos: poisoned batch")
		}
		return nil
	})
	t.Cleanup(func() { par.SetChaos(nil) })
	collectGrid := func() *sweep.Grid {
		g := testGrid(t, sp)
		g.OnError = par.Collect
		return g
	}
	g := collectGrid()
	cells := make([]int, g.Size())
	for i := range cells {
		cells[i] = i
	}
	local, lerr := collectGrid().RunIndices(context.Background(), cells, nil, nil)

	co := NewCoordinator(fastConfig())
	defer co.Close()
	rows, err := co.Run(context.Background(), g, nil, nil)
	for _, e := range []error{lerr, err} {
		var es par.Errors
		if !errors.As(e, &es) || fmt.Sprint(es.Indices()) != "[6 7 8 9 10 11]" {
			t.Fatalf("err = %v, want par.Errors blaming gzip-graphic's cells 6..11", e)
		}
	}
	if len(rows) != g.Size() {
		t.Fatalf("coordinator returned %d rows, want %d", len(rows), g.Size())
	}
	for i := range cells {
		if poisoned := i >= 6; poisoned && rows[i] != (sweep.Row{}) ||
			!poisoned && (rows[i] != local[i] || rows[i] == sweep.Row{}) {
			t.Errorf("cell %d: coordinator row %+v, local row %+v", i, rows[i], local[i])
		}
	}
}

func TestCoordinatorSurvivesDeadWorker(t *testing.T) {
	// Worker "w0" crashes every lease; "w1" is healthy. Whatever lease w0
	// takes must go back on the queue for w1 (or into the next wave) and
	// the bytes must come out identical to a local run.
	co := NewCoordinator(fastConfig())
	defer co.Close()
	for i, mode := range []string{"w0", "none"} {
		// lease handler lives in internal/server; here a stub suffices —
		// it runs the leased cells through the same RunIndices path.
		name := fmt.Sprintf("w%d", i)
		h := ChaosMiddleware(name, crashPlan(mode), leaseStub(t))
		ts := httptest.NewServer(h)
		defer ts.Close()
		if err := co.Register(ts.Listener.Addr().String()); err != nil {
			t.Fatal(err)
		}
	}
	sp := smallSpec()
	rows, err := co.Run(context.Background(), testGrid(t, sp), nil, nil)
	if err != nil {
		t.Fatalf("Run with one dead worker: %v", err)
	}
	var buf bytes.Buffer
	if err := sweep.WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), localCSV(t, sp)) {
		t.Fatal("dead-worker fleet run differs from a local run")
	}
}

// TestCoordinatorDeliversOnceThenFallback pins that a failed delivery is
// final for that worker: the coordinator does not re-send the lease to it.
// The only worker fails every lease delivery, and no heartbeat re-admits
// it during the run, so the lease is sent exactly once, counted as one
// failure, and the grid falls back to local execution with a local run's
// bytes. Each failure kind takes the same path.
func TestCoordinatorDeliversOnceThenFallback(t *testing.T) {
	sp := smallSpec()
	want := localCSV(t, sp)
	for _, kind := range []struct {
		name string
		f    FaultKind
	}{{"crash", FaultCrash}, {"error", FaultError}, {"hang", FaultHang}} {
		t.Run(kind.name, func(t *testing.T) {
			var deliveries atomic.Int64
			chaos := func(_ string, r *http.Request) Fault {
				if r.URL.Path != "/v1/lease" {
					return Fault{}
				}
				deliveries.Add(1)
				return Fault{Kind: kind.f}
			}
			ts := httptest.NewServer(ChaosMiddleware("w0", chaos, leaseStub(t)))
			defer ts.Close()
			co := NewCoordinator(Config{
				LeaseCells:     len(sp.IQSizes),
				LeaseTimeout:   200 * time.Millisecond,
				HeartbeatEvery: time.Minute,
			})
			defer co.Close()
			if err := co.Register(ts.Listener.Addr().String()); err != nil {
				t.Fatal(err)
			}
			rows, err := co.Run(context.Background(), testGrid(t, sp), nil, nil)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if n := deliveries.Load(); n != 1 {
				t.Fatalf("lease delivered %d times, want 1", n)
			}
			snap := co.Snapshot()
			if snap.LeaseFailures != 1 || snap.LocalFallbacks != 1 {
				t.Fatalf("LeaseFailures = %d, LocalFallbacks = %d; want 1, 1", snap.LeaseFailures, snap.LocalFallbacks)
			}
			var buf bytes.Buffer
			if err := sweep.WriteCSV(&buf, rows); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatal("fallback run differs from a local run")
			}
		})
	}
}

// leaseStub is a minimal in-package worker: the real handler lives in
// internal/server (which imports this package), so fleet's own tests serve
// leases through a stub speaking the same wire protocol.
func leaseStub(t *testing.T) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/lease" {
			w.WriteHeader(http.StatusOK) // healthz
			return
		}
		var req LeaseRequest
		if err := jsonDecode(r, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		g, err := req.Grid.Build()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := req.Validate(g.Size()); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		cells := req.Cells()
		rows, err := g.RunIndices(r.Context(), cells, nil, nil)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		resp := LeaseResponse{Lease: req.Lease, Rows: make([]CellRow, len(cells))}
		for k, i := range cells {
			resp.Rows[k] = CellRow{Index: i, Row: rows[k]}
		}
		w.Header().Set("Content-Type", "application/json")
		jsonEncode(w, resp)
	})
}

func TestCoordinatorDrainCheckpointResume(t *testing.T) {
	sp := smallSpec()
	straight := localCSV(t, sp)

	dir := t.TempDir()
	path := filepath.Join(dir, "grid.ckpt")
	g := testGrid(t, sp)
	ck, err := checkpoint.Open[sweep.Row](path, "sweep", g.Fingerprint(), g.Size(), false)
	if err != nil {
		t.Fatal(err)
	}
	ck.SetInterval(1)

	co := NewCoordinator(fastConfig())
	defer co.Close()
	ts := httptest.NewServer(leaseStub(t))
	defer ts.Close()
	if err := co.Register(ts.Listener.Addr().String()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, runErr := co.Run(ctx, g, ck, func(done, total int) {
		if done >= 1 {
			cancel()
		}
	})
	if runErr == nil {
		// The whole grid may have landed in one lease before the cancel
		// could bite; the resume leg below must still render clean bytes.
		if rows == nil {
			t.Fatal("nil rows with nil error")
		}
	} else {
		if !errors.Is(runErr, context.Canceled) {
			t.Fatalf("interrupted run failed with %v, want context.Canceled", runErr)
		}
		// The partial rows come back as from a local run: a landed cell's
		// row, the zero row elsewhere.
		if len(rows) != g.Size() {
			t.Fatalf("interrupted run returned %d rows, want %d", len(rows), g.Size())
		}
		for i, row := range rows {
			if held, ok := ck.Get(i); row != (sweep.Row{}) && (!ok || row != held) {
				t.Fatalf("interrupted run returned cell %d's row %+v; checkpoint holds %+v, %v", i, row, held, ok)
			}
		}
	}

	g2 := testGrid(t, sp)
	ck2, err := checkpoint.Open[sweep.Row](path, "sweep", g2.Fingerprint(), g2.Size(), true)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := g2.RunContext(context.Background(), ck2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sweep.WriteCSV(&buf, resumed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(straight, buf.Bytes()) {
		t.Fatal("fleet-interrupted grid resumed locally renders different bytes")
	}
	os.Remove(path)
}
