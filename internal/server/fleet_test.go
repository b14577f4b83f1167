package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"slices"
	"testing"

	"softerror/internal/fleet"
	"softerror/internal/par"
	"softerror/internal/sweep"
)

func TestLeaseEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})

	sp := fleet.GridSpec{
		Benches:  []string{"mcf"},
		Policies: []string{"baseline"},
		IQSizes:  []int{16, 32, 64},
		Commits:  400,
	}
	req := fleet.LeaseRequest{
		Lease:  "lease-000001",
		Grid:   sp,
		Ranges: []fleet.Range{{Lo: 0, Hi: 2}},
	}
	rec := do(s, "POST", "/v1/lease", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("lease returned %d: %s", rec.Code, rec.Body.String())
	}
	var resp fleet.LeaseResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Lease != req.Lease || len(resp.Rows) != 2 {
		t.Fatalf("lease response %q with %d rows, want %q with 2", resp.Lease, len(resp.Rows), req.Lease)
	}

	// The served rows must be the exact rows a local run computes for the
	// same cells — the byte-identity contract at its smallest scale.
	g, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := g.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, cr := range resp.Rows {
		if cr.Index != k {
			t.Fatalf("row %d answers cell %d", k, cr.Index)
		}
		if !reflect.DeepEqual(cr.Row, want[cr.Index]) {
			t.Fatalf("leased cell %d differs from the local row:\n%+v\n%+v", cr.Index, cr.Row, want[cr.Index])
		}
	}
}

func TestLeaseEndpointRejects(t *testing.T) {
	s := newTestServer(t, Config{})

	mcf := fleet.GridSpec{Benches: []string{"mcf"}, Policies: []string{"baseline"}}
	cases := []struct {
		name string
		body any
	}{
		{"malformed json", json.RawMessage(`{`)},
		{"unknown field", json.RawMessage(`{"lease":"l","nope":1}`)},
		{"bad grid", fleet.LeaseRequest{
			Lease:  "l",
			Grid:   fleet.GridSpec{Benches: []string{"nope"}, Policies: []string{"baseline"}},
			Ranges: []fleet.Range{{Lo: 0, Hi: 1}},
		}},
		{"empty ranges", fleet.LeaseRequest{Lease: "l", Grid: mcf}},
		{"inverted range", fleet.LeaseRequest{
			Lease: "l", Grid: mcf, Ranges: []fleet.Range{{Lo: 1, Hi: 0}},
		}},
		{"beyond bounds", fleet.LeaseRequest{
			Lease: "l", Grid: mcf, Ranges: []fleet.Range{{Lo: 0, Hi: 99}},
		}},
	}
	for _, c := range cases {
		if rec := do(s, "POST", "/v1/lease", c.body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: lease returned %d, want 400; body: %.200s", c.name, rec.Code, rec.Body.String())
		}
	}
}

func TestLeaseEndpointDraining(t *testing.T) {
	s := newTestServer(t, Config{})
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	req := fleet.LeaseRequest{
		Lease:  "l",
		Grid:   fleet.GridSpec{Benches: []string{"mcf"}, Policies: []string{"baseline"}},
		Ranges: []fleet.Range{{Lo: 0, Hi: 1}},
	}
	if rec := do(s, "POST", "/v1/lease", req); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("lease during drain returned %d, want 503", rec.Code)
	}
}

func TestFleetRegisterEndpoint(t *testing.T) {
	plain := newTestServer(t, Config{})
	if rec := do(plain, "POST", "/v1/fleet/register", fleet.RegisterRequest{Addr: "127.0.0.1:9999"}); rec.Code != http.StatusNotFound {
		t.Fatalf("register on a non-coordinator returned %d, want 404", rec.Code)
	}

	co := fleet.NewCoordinator(fleet.Config{})
	t.Cleanup(co.Close)
	s := newTestServer(t, Config{Fleet: co})

	rec := do(s, "POST", "/v1/fleet/register", fleet.RegisterRequest{Addr: "127.0.0.1:9999"})
	if rec.Code != http.StatusOK {
		t.Fatalf("register returned %d: %s", rec.Code, rec.Body.String())
	}
	var resp fleet.RegisterResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Workers != 1 {
		t.Fatalf("register acknowledged %d workers, want 1", resp.Workers)
	}
	// Idempotent: the same worker re-registering does not grow the fleet.
	rec = do(s, "POST", "/v1/fleet/register", fleet.RegisterRequest{Addr: "127.0.0.1:9999"})
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Workers != 1 {
		t.Fatalf("re-register grew the fleet to %d workers", resp.Workers)
	}
	if rec := do(s, "POST", "/v1/fleet/register", fleet.RegisterRequest{Addr: "http://evil/"}); rec.Code != http.StatusBadRequest {
		t.Fatalf("register with a bad addr returned %d, want 400", rec.Code)
	}
}

// TestCoordinatorJobDegradesToLocal pins graceful degradation end to end:
// a coordinator-mode server whose only registered worker is unreachable
// must still finish a sweep job — through the coordinator's local
// fallback — and the job must end done, not failed.
func TestCoordinatorJobDegradesToLocal(t *testing.T) {
	co := fleet.NewCoordinator(fleet.Config{})
	t.Cleanup(co.Close)
	s := newTestServer(t, Config{Fleet: co})
	if err := co.Register("127.0.0.1:9"); err != nil { // discard port: nothing listens
		t.Fatal(err)
	}

	acc := submitSweep(t, s, SweepRequest{
		Benches:  []string{"mcf"},
		Policies: []string{"baseline"},
		Commits:  400,
	})
	st := waitTerminal(t, s, acc.ID)
	if st.State != JobDone {
		t.Fatalf("coordinator job ended %q, want done: %+v", st.State, st)
	}
	if snap := co.Snapshot(); snap.LocalFallbacks < 1 {
		t.Fatalf("LocalFallbacks = %d, want >= 1 (the only worker is unreachable)", snap.LocalFallbacks)
	}
}

// TestCoordinatorJobCollectServesLocalCSV runs one collect-policy grid
// with one chaos-poisoned cell as a local job and as a job on a
// coordinator with no workers. Both jobs fail, and both must serve the
// same CSV: every unpoisoned row, byte for byte.
func TestCoordinatorJobCollectServesLocalCSV(t *testing.T) {
	req := SweepRequest{
		Benches:  []string{"gzip-graphic", "mcf"},
		Policies: []string{"baseline", "squash-l1"},
		IQSizes:  []int{16, 32},
		Commits:  400,
		OnError:  "continue",
	}
	const poisoned = 2
	t.Cleanup(func() { par.SetChaos(nil) })
	// csvOf poisons the task at position pos of the job's cell list, runs
	// the job and returns its CSV body.
	csvOf := func(s *Server, pos int) []byte {
		t.Helper()
		par.SetChaos(func(_ context.Context, index int) error {
			if index == pos {
				panic("chaos: poisoned cell")
			}
			return nil
		})
		acc := submitSweep(t, s, req)
		if st := waitTerminal(t, s, acc.ID); st.State != JobFailed {
			t.Fatalf("job ended %q, want failed: %+v", st.State, st)
		}
		w := do(s, "GET", "/v1/jobs/"+acc.ID+"/csv", nil)
		if w.Code != http.StatusOK {
			t.Fatalf("csv: status %d, body %s", w.Code, w.Body)
		}
		return w.Body.Bytes()
	}

	local := newTestServer(t, Config{})
	g, err := local.buildGrid(req)
	if err != nil {
		t.Fatal(err)
	}
	// A local job runs its cells cheapest-first; the coordinator's
	// fallback runs them in cell order.
	pos := poisoned
	if est, ok := g.EstimateCells(); ok {
		pos = slices.Index(sweep.OrderByEstimate(est), poisoned)
	}
	want := csvOf(local, pos)

	co := fleet.NewCoordinator(fleet.Config{})
	t.Cleanup(co.Close)
	got := csvOf(newTestServer(t, Config{Fleet: co}), poisoned)
	if !bytes.Equal(got, want) {
		t.Fatalf("coordinator job CSV differs from the local job's:\n%s\nwant:\n%s", got, want)
	}
	if lines := bytes.Count(want, []byte("\n")); lines != g.Size() {
		t.Fatalf("CSV has %d lines, want a header and %d rows", lines, g.Size()-1)
	}
}

// TestJobFailFastChaosServesNoRows fails a fail-fast job on its first cell,
// locally and on a coordinator with no workers. Cells that never ran have
// no rows, so neither job may serve a CSV.
func TestJobFailFastChaosServesNoRows(t *testing.T) {
	par.SetChaos(func(_ context.Context, index int) error {
		if index == 0 {
			panic("chaos: poisoned cell")
		}
		return nil
	})
	t.Cleanup(func() { par.SetChaos(nil) })
	co := fleet.NewCoordinator(fleet.Config{})
	t.Cleanup(co.Close)
	for _, cfg := range []Config{{Workers: 1}, {Workers: 1, Fleet: co}} {
		s := newTestServer(t, cfg)
		acc := submitSweep(t, s, SweepRequest{
			Benches:  []string{"mcf"},
			Policies: []string{"baseline", "squash-l1"},
			IQSizes:  []int{16, 32},
			Commits:  400,
		})
		if st := waitTerminal(t, s, acc.ID); st.State != JobFailed {
			t.Fatalf("fleet %v: job ended %q, want failed", cfg.Fleet != nil, st.State)
		}
		if w := do(s, "GET", "/v1/jobs/"+acc.ID+"/csv", nil); w.Code != http.StatusConflict {
			t.Errorf("fleet %v: csv status %d, want 409; body %s", cfg.Fleet != nil, w.Code, w.Body)
		}
	}
}
