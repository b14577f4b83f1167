package invariant

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"softerror/internal/core"
	"softerror/internal/rng"
	"softerror/internal/server"
	"softerror/internal/spec"
	"softerror/internal/static"
)

// checkStaticBounds pins the static analyzer's whole claim: over a
// seed-drawn workload and pipeline configuration, every analytic AVF upper
// bound dominates the simulated AVF for its structure — SDC, false DUE and
// DUE for the instruction queue, front end, store buffer and register
// file (plus the reorder buffer, load/store queue and predictor tables
// when the drawn config is out of order), and every IQ bit-field class —
// and the cycle lower bound never
// exceeds the simulated cycle count. Then the serving leg: /v1/bound
// answers the same cell twice byte-identically without simulating a single
// cycle.
func checkStaticBounds(seed uint64, opt Options) error {
	opt = opt.withDefaults()
	s := rng.New(seed, 0x57A7B)
	params := RandomWorkload(s)
	// The static analyzer bounds position-addressable streams only: a
	// PC-indexed predictor's mispredicts depend on the configuration's
	// fetch order, so those draws keep the statistical predictor here.
	params.BranchPredictor = ""
	cfg := RandomPipelineConfig(s)

	res, err := core.RunContext(context.Background(), core.Config{
		Workload: params,
		Pipeline: cfg,
		Commits:  opt.Commits,
		FrontEnd: true, StoreBuffer: true, RegFile: true,
	})
	if err != nil {
		return fmt.Errorf("run: %w (cfg=%+v)", err, cfg)
	}
	if res.Cycles == 0 || res.Commits < opt.Commits {
		return fmt.Errorf("degenerate run: %d cycles, %d/%d commits (cfg=%+v)",
			res.Cycles, res.Commits, opt.Commits, cfg)
	}
	b, err := static.Analyze(params, opt.Commits, cfg)
	if err != nil {
		return fmt.Errorf("analyze: %w", err)
	}

	const eps = 1e-9
	type pair struct {
		name  string
		bound float64
		sim   float64
	}
	pairs := []pair{
		{"iq sdc", b.IQ.SDC, res.Report.SDCAVF()},
		{"iq false-due", b.IQ.FalseDUE, res.Report.FalseDUEAVF()},
		{"iq due", b.IQ.DUE, res.Report.DUEAVF()},
		{"front-end sdc", b.FrontEnd.SDC, res.FrontEndReport.SDCAVF()},
		{"front-end false-due", b.FrontEnd.FalseDUE, res.FrontEndReport.FalseDUEAVF()},
		{"front-end due", b.FrontEnd.DUE, res.FrontEndReport.DUEAVF()},
		{"store-buffer sdc", b.StoreBuffer.SDC, res.StoreBufferReport.SDCAVF()},
		{"store-buffer false-due", b.StoreBuffer.FalseDUE, res.StoreBufferReport.FalseDUEAVF()},
		{"store-buffer due", b.StoreBuffer.DUE, res.StoreBufferReport.DUEAVF()},
		{"reg-file sdc", b.RegFile.SDC, res.RegFile.SDCAVF()},
		{"reg-file false-due", b.RegFile.FalseDUE, res.RegFile.FalseDUEAVF()},
		{"reg-file due", b.RegFile.DUE, res.RegFile.DUEAVF()},
	}
	if res.ROBReport != nil {
		pairs = append(pairs,
			pair{"rob sdc", b.ROB.SDC, res.ROBReport.SDCAVF()},
			pair{"rob false-due", b.ROB.FalseDUE, res.ROBReport.FalseDUEAVF()},
			pair{"rob due", b.ROB.DUE, res.ROBReport.DUEAVF()})
	}
	if res.LSQReport != nil {
		pairs = append(pairs,
			pair{"lsq sdc", b.LSQ.SDC, res.LSQReport.SDCAVF()},
			pair{"lsq false-due", b.LSQ.FalseDUE, res.LSQReport.FalseDUEAVF()},
			pair{"lsq due", b.LSQ.DUE, res.LSQReport.DUEAVF()})
	}
	if res.TAGEReport != nil {
		pairs = append(pairs,
			pair{"tage sdc", b.TAGE.SDC, res.TAGEReport.SDCAVF()},
			pair{"tage false-due", b.TAGE.FalseDUE, res.TAGEReport.FalseDUEAVF()},
			pair{"tage due", b.TAGE.DUE, res.TAGEReport.DUEAVF()})
	}
	total := float64(res.Report.TotalBC())
	for f, bound := range b.IQField {
		pairs = append(pairs, pair{
			fmt.Sprintf("iq field %d", f), bound,
			float64(res.Report.FieldACEBC[f]) / total,
		})
	}
	for _, p := range pairs {
		if p.bound+eps < p.sim {
			return fmt.Errorf("%s: static bound %.9f < simulated AVF %.9f (cfg=%+v)",
				p.name, p.bound, p.sim, cfg)
		}
	}
	if b.MinCycles > res.Cycles {
		return fmt.Errorf("cycle lower bound %d > simulated cycles %d (cfg=%+v)",
			b.MinCycles, res.Cycles, cfg)
	}
	return checkBoundServing(s)
}

// checkBoundServing audits the production surface on a seed-drawn roster
// cell: two identical /v1/bound queries must produce byte-identical bodies
// (the second from cache) and count as two served bounds, while the
// server's own simulation counters stay put (the process-wide cycle total
// also counts concurrent simulations elsewhere in the process).
func checkBoundServing(s *rng.Stream) error {
	srv := server.New(server.Config{Workers: 1, CacheBytes: 1 << 20})
	defer srv.Close()

	all := spec.All()
	bench := all[s.Intn(len(all))].Name
	iq := 8 + int(s.Intn(120))
	ooo := s.Intn(2) == 1
	target := fmt.Sprintf("/v1/bound?bench=%s&iqsize=%d&ooo=%v&commits=4000",
		bench, iq, ooo)

	r1 := get(srv, target)
	if r1.Code != http.StatusOK {
		return fmt.Errorf("GET %s = %d: %s", target, r1.Code, r1.Body.String())
	}
	r2 := get(srv, target)
	if r2.Code != http.StatusOK {
		return fmt.Errorf("repeat GET %s = %d: %s", target, r2.Code, r2.Body.String())
	}
	if !bytes.Equal(r1.Body.Bytes(), r2.Body.Bytes()) {
		return fmt.Errorf("bound responses for %s differ between queries", target)
	}
	if h := r2.Header().Get("X-Cache"); h != "hit" {
		return fmt.Errorf("repeat bound query served %q, want cache hit", h)
	}
	var m map[string]any
	if err := json.Unmarshal(get(srv, "/metrics").Body.Bytes(), &m); err != nil {
		return fmt.Errorf("decoding /metrics: %w", err)
	}
	for _, name := range []string{"cache_misses", "jobs_in_flight", "jobs_queued",
		"jobs_done", "jobs_failed", "jobs_interrupted", "leases_served"} {
		if m[name] != 0.0 {
			return fmt.Errorf("bound queries moved %s to %v, want 0", name, m[name])
		}
	}
	if m["bounds_served"] != 2.0 {
		return fmt.Errorf("bounds_served = %v after two bound queries, want 2", m["bounds_served"])
	}
	return nil
}

// get runs one GET against the in-process server and returns the recorded
// response.
func get(s *server.Server, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec
}
