package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"softerror/internal/core"
)

func getBound(t *testing.T, s *Server, target string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", target, nil))
	return w
}

// TestBoundServesWithoutSimulating pins the endpoint's whole contract:
// responses are byte-deterministic, the second identical query is a cache
// hit, the counters move, and — the point of the subsystem — not one cycle
// is simulated however many bounds are served.
func TestBoundServesWithoutSimulating(t *testing.T) {
	s := New(Config{Workers: 2, MaxEvals: 0}) // zero eval slots: bounds must not need one
	defer s.Close()

	before := core.CyclesSimulated()
	const target = "/v1/bound?bench=mcf&policy=squash-l1&iqsize=32&ooo=true&commits=5000"
	w1 := getBound(t, s, target)
	if w1.Code != 200 {
		t.Fatalf("GET %s = %d: %s", target, w1.Code, w1.Body.String())
	}
	if h := w1.Header().Get("X-Cache"); h != "miss" {
		t.Errorf("first query X-Cache = %q, want miss", h)
	}
	w2 := getBound(t, s, target)
	if w2.Code != 200 {
		t.Fatalf("second GET = %d", w2.Code)
	}
	if h := w2.Header().Get("X-Cache"); h != "hit" {
		t.Errorf("second query X-Cache = %q, want hit", h)
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatalf("bound responses differ:\n%s\nvs\n%s", w1.Body.String(), w2.Body.String())
	}
	if after := core.CyclesSimulated(); after != before {
		t.Fatalf("bound queries simulated %d cycles, want 0", after-before)
	}
	if got := s.metrics.boundQueries.Value(); got != 2 {
		t.Errorf("bound_queries = %d, want 2", got)
	}
	if got := s.metrics.boundsServed.Value(); got != 2 {
		t.Errorf("bounds_served = %d, want 2", got)
	}
	if hits, misses := s.metrics.cacheHits.Value(), s.metrics.cacheMisses.Value(); hits != 0 || misses != 0 {
		t.Errorf("bound queries moved the eval cache counters: hits %d, misses %d", hits, misses)
	}
}

// TestBoundResponseShape decodes one response and sanity-checks the bound
// semantics the static package guarantees.
func TestBoundResponseShape(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	w := getBound(t, s, "/v1/bound?bench=gzip-graphic")
	if w.Code != 200 {
		t.Fatalf("GET = %d: %s", w.Code, w.Body.String())
	}
	var resp BoundResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Bench != "gzip-graphic" || resp.Policy != "baseline" ||
		resp.IQSize != 64 || resp.OutOfOrder || resp.Commits != core.DefaultCommits {
		t.Fatalf("defaults not applied: %+v", resp)
	}
	for name, sb := range map[string]BoundStruct{
		"iq": resp.IQ, "front_end": resp.FrontEnd,
		"store_buffer": resp.StoreBuffer, "reg_file": resp.RegFile,
	} {
		for metric, v := range map[string]float64{
			"sdc": sb.SDC, "false_due": sb.FalseDUE, "due": sb.DUE,
		} {
			if v < 0 || v > 1 {
				t.Errorf("%s.%s = %v out of [0,1]", name, metric, v)
			}
		}
	}
	if len(resp.IQFields) == 0 {
		t.Error("iq_fields missing")
	}
	if resp.MinCycles == 0 || resp.EstCycles < resp.MinCycles {
		t.Errorf("cost model: min=%d est=%d, want 0 < min <= est",
			resp.MinCycles, resp.EstCycles)
	}
}

// TestBoundBadQueries: every malformed query is a clean 400.
func TestBoundBadQueries(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	for _, target := range []string{
		"/v1/bound",
		"/v1/bound?bench=not-a-benchmark",
		"/v1/bound?bench=mcf&policy=nope",
		"/v1/bound?bench=mcf&iqsize=0",
		"/v1/bound?bench=mcf&iqsize=x",
		"/v1/bound?bench=mcf&ooo=maybe",
		"/v1/bound?bench=mcf&commits=0",
		"/v1/bound?bench=mcf&commits=-5",
	} {
		if w := getBound(t, s, target); w.Code != 400 {
			t.Errorf("GET %s = %d, want 400", target, w.Code)
		}
	}
}
