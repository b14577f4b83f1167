package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"softerror/internal/core"
	"softerror/internal/fleet"
)

// decodeTestBody decodes data as the POST handlers decode a request body.
func decodeTestBody(data []byte, v any) bool {
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(data))
	return decodeBody(httptest.NewRecorder(), r, v)
}

// FuzzSweepRequest drives arbitrary JSON through the sweep submission
// surface: decode (with the handler's unknown-field strictness) then
// buildGrid. Accepted requests must yield a bounded, positively-sized grid
// with sane axes and a deterministic fingerprint; everything else must be
// a clean error, never a panic and never an unbounded campaign.
func FuzzSweepRequest(f *testing.F) {
	f.Add([]byte(`{"policies":["baseline"]}`))
	f.Add([]byte(`{"benches":["gzip-graphic","mcf"],"policies":["baseline","squash-l1"],"iqsizes":[16,64],"ooo":[false,true],"commits":5000}`))
	// SweepRequest has no tasktimeout or retries field: decoding rejects
	// these seeds as unknown fields.
	f.Add([]byte(`{"policies":["baseline"],"onerror":"continue","tasktimeout":"30s","retries":2}`))
	f.Add([]byte(`{"policies":["nope"]}`))
	f.Add([]byte(`{"policies":[]}`))
	f.Add([]byte(`{"benches":["not-a-benchmark"],"policies":["baseline"]}`))
	f.Add([]byte(`{"policies":["baseline"],"tasktimeout":"not-a-duration"}`))
	f.Add([]byte(`{"policies":["baseline"],"iqsizes":[0]}`))
	f.Add([]byte(`{"policies":["baseline"],"iqsizes":[-4]}`))
	f.Add([]byte(`{"policies":["baseline"],"iqsizes":[4097]}`))
	f.Add([]byte(`{"policies":["baseline"],"iqsizes":[1073741824]}`))
	f.Add([]byte(`{"policies":["baseline"],"retries":-1}`))
	f.Add([]byte(`{"policies":["baseline"],"unknown":1}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"policies":["baseline"],"commits":4294967296}`))
	f.Add([]byte(`{"policies":["baseline"],"commits":4194305}`))

	s := New(Config{Workers: 2})
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, data []byte) {
		var req SweepRequest
		if !decodeTestBody(data, &req) {
			return
		}
		g, err := s.buildGrid(req)
		if err != nil {
			return
		}
		if n := g.Size(); n < 1 || n > fleet.MaxGridCells {
			t.Fatalf("accepted grid spans %d cells (cap %d)", n, fleet.MaxGridCells)
		}
		if len(g.Benches) == 0 || len(g.Policies) == 0 || len(g.IQSizes) == 0 || len(g.OutOfOrder) == 0 {
			t.Fatalf("accepted grid has an empty axis: %+v", g)
		}
		for _, iq := range g.IQSizes {
			if iq < 1 || iq > core.MaxServedIQSize {
				t.Fatalf("accepted IQ size %d outside 1..%d", iq, core.MaxServedIQSize)
			}
		}
		if g.Commits > core.MaxServedCommits {
			t.Fatalf("accepted %d commits per cell, past the cap %d", g.Commits, core.MaxServedCommits)
		}
		fp := g.Fingerprint()
		g2, err := s.buildGrid(req)
		if err != nil {
			t.Fatalf("rebuilding an accepted request failed: %v", err)
		}
		if fp2 := g2.Fingerprint(); fp2 != fp {
			t.Fatalf("fingerprint not deterministic: %s vs %s", fp, fp2)
		}
	})
}

// jobsRequest builds a GET request for a fuzzed target, reporting targets
// the request constructor itself cannot represent (httptest.NewRequest
// panics on them) as errors — those are out of routing's scope.
func jobsRequest(target string) (req *http.Request, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("unroutable target: %v", r)
		}
	}()
	return httptest.NewRequest(http.MethodGet, target, nil), nil
}

// FuzzJobPath drives arbitrary {id} segments through the /v1/jobs routes.
// With no jobs registered, every routable target must resolve to a clean
// 301 (path normalisation), 400 (bad query) or 404 — never a 2xx, never a
// 5xx, never a panic, regardless of traversal sequences, escapes or
// control bytes in the id.
func FuzzJobPath(f *testing.F) {
	f.Add("job-000001", 0)
	f.Add("job-000001", 1)
	f.Add("job-000001", 2)
	f.Add("", 0)
	f.Add("../../healthz", 0)
	f.Add("..%2f..%2fhealthz", 0)
	f.Add("job-000001%00", 2)
	f.Add("job-000001/extra", 1)
	f.Add("job-000001?after=x", 1)
	f.Add("%", 0)

	s := New(Config{Workers: 2})
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, id string, route int) {
		suffix := [...]string{"", "/events", "/csv"}[((route%3)+3)%3]
		req, err := jobsRequest("/v1/jobs/" + id + suffix)
		if err != nil {
			return
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		switch w.Code {
		case http.StatusMovedPermanently, http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("GET /v1/jobs/%q%s = %d with no jobs registered; body: %.200s",
				id, suffix, w.Code, w.Body.String())
		}
	})
}
