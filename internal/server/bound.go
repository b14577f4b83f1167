package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"softerror/internal/checkpoint"
	"softerror/internal/core"
	"softerror/internal/isa"
	"softerror/internal/pipeline"
	"softerror/internal/spec"
	"softerror/internal/static"
)

// BoundStruct is one structure's AVF upper bounds in a /v1/bound response.
type BoundStruct struct {
	SDC      float64 `json:"sdc"`
	FalseDUE float64 `json:"false_due"`
	DUE      float64 `json:"due"`
}

// BoundResponse is the GET /v1/bound body: analytic AVF upper bounds for
// one (benchmark, policy, geometry, commit budget) cell, plus the static
// cost model the server prices sweep work with. Every number is derived
// from the decoded program alone — serving it burns zero simulated cycles.
type BoundResponse struct {
	Bench      string `json:"bench"`
	Policy     string `json:"policy"`
	IQSize     int    `json:"iq_size"`
	OutOfOrder bool   `json:"out_of_order"`
	Commits    uint64 `json:"commits"`

	IQ          BoundStruct `json:"iq"`
	FrontEnd    BoundStruct `json:"front_end"`
	StoreBuffer BoundStruct `json:"store_buffer"`
	RegFile     BoundStruct `json:"reg_file"`

	// IQFields bounds the instruction queue's per-field ACE fraction,
	// keyed by field name (opcode, dest, ...).
	IQFields map[string]float64 `json:"iq_fields"`

	// MinCycles is a provable lower bound on the cell's simulated cycles;
	// EstCycles is the admission cost estimate derived from it.
	MinCycles uint64 `json:"min_cycles"`
	EstCycles uint64 `json:"est_cycles"`
}

// boundSpec is a normalised /v1/bound query.
type boundSpec struct {
	bench   spec.Benchmark
	policy  core.Policy
	iqSize  int
	ooo     bool
	commits uint64
}

// parseBoundQuery validates the query parameters and applies the sweep
// cell defaults (iqsize 64, in order, core.DefaultCommits), so a bound
// query prices exactly the cell a sweep with the same axes would run.
func parseBoundQuery(r *http.Request) (boundSpec, error) {
	q := r.URL.Query()
	var b boundSpec
	name := q.Get("bench")
	if name == "" {
		return b, fmt.Errorf("bench parameter is required")
	}
	var ok bool
	if b.bench, ok = spec.ByName(name); !ok {
		return b, fmt.Errorf("unknown benchmark %q", name)
	}
	pol := q.Get("policy")
	if pol == "" {
		pol = core.PolicyBaseline.Flag()
	}
	var err error
	if b.policy, err = core.ParsePolicy(pol); err != nil {
		return b, err
	}
	b.iqSize = 64
	if v := q.Get("iqsize"); v != "" {
		if b.iqSize, err = strconv.Atoi(v); err != nil || b.iqSize < 1 {
			return b, fmt.Errorf("bad iqsize %q, want a positive integer", v)
		}
	}
	if v := q.Get("ooo"); v != "" {
		if b.ooo, err = strconv.ParseBool(v); err != nil {
			return b, fmt.Errorf("bad ooo %q, want a boolean", v)
		}
	}
	b.commits = core.DefaultCommits
	if v := q.Get("commits"); v != "" {
		if b.commits, err = strconv.ParseUint(v, 10, 64); err != nil || b.commits < 1 || b.commits > core.MaxServedCommits {
			return b, fmt.Errorf("bad commits %q, want 1..%d", v, core.MaxServedCommits)
		}
	}
	return b, nil
}

// fingerprint is the bound's content address in the shared result cache.
func (b boundSpec) fingerprint() string {
	return checkpoint.Fingerprint("bound", 1, b.bench.Name, uint8(b.policy),
		b.iqSize, b.ooo, b.commits)
}

// handleBound serves an analytic AVF bound for one sweep cell. Bounds are
// served from the content-addressed cache and computed — statically, never
// by simulation — on miss; the endpoint takes no eval or sweep slot, so
// bound traffic cannot displace simulation work, and `mcycles_simulated`
// does not move however many bounds are served.
func (s *Server) handleBound(w http.ResponseWriter, r *http.Request) {
	s.metrics.boundQueries.Add(1)
	if s.isDraining() {
		s.metrics.rejected.Add(1)
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	bs, err := parseBoundQuery(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := bs.fingerprint()
	// Bound traffic is counted by bounds_served alone: cache_hits and
	// cache_misses count evals, and a bound never simulates.
	if body, ctype, ok := s.cache.Get(key); ok {
		s.metrics.boundsServed.Add(1)
		s.serveBody(w, ctype, "hit", body)
		return
	}
	cfg := pipeline.DefaultConfig()
	bs.policy.Apply(&cfg)
	cfg.IQSize = bs.iqSize
	cfg.OutOfOrder = bs.ooo
	bounds, err := static.Analyze(bs.bench.Params, bs.commits, cfg)
	if err != nil {
		// The one analyzable failure mode: a stream that cannot be decoded
		// position-addressably. Not the client's fault, not retryable.
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	resp := BoundResponse{
		Bench:       bs.bench.Name,
		Policy:      bs.policy.Flag(),
		IQSize:      bs.iqSize,
		OutOfOrder:  bs.ooo,
		Commits:     bs.commits,
		IQ:          BoundStruct(bounds.IQ),
		FrontEnd:    BoundStruct(bounds.FrontEnd),
		StoreBuffer: BoundStruct(bounds.StoreBuffer),
		RegFile:     BoundStruct(bounds.RegFile),
		IQFields:    make(map[string]float64, isa.NumFields),
		MinCycles:   bounds.MinCycles,
		EstCycles:   bounds.EstCycles,
	}
	for f := isa.Field(0); f < isa.NumFields; f++ {
		resp.IQFields[f.String()] = bounds.IQField[f]
	}
	body, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	body = append(body, '\n')
	const ctype = "application/json; charset=utf-8"
	s.cache.Put(key, ctype, body)
	s.metrics.boundsServed.Add(1)
	s.serveBody(w, ctype, "miss", body)
}
