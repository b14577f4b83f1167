package server

import (
	"context"
	"errors"
	"net/http"

	"softerror/internal/fleet"
)

// handleLease executes one fleet lease: rebuild the grid named by the wire
// spec, admission-check the cell ranges, run exactly those cells, and
// answer every leased cell exactly once. Leases share the sweep worker
// slots — a worker saturated with local jobs sheds leases with 429 and the
// coordinator moves the lease to another worker. Execution is fail-fast:
// reassignment is the coordinator's job, so any cell error fails the
// lease loudly instead of answering partial coverage.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		s.metrics.rejected.Add(1)
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req fleet.LeaseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	g, err := req.Grid.Build()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := req.Validate(g.Size()); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	g.Workers = s.cfg.Workers

	// Take a sweep worker slot without queueing: a lease that cannot run
	// now is better run elsewhere than parked here.
	select {
	case s.slots <- struct{}{}:
	default:
		s.metrics.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "no worker slot free")
		return
	}
	defer func() { <-s.slots }()

	// The lease lives as long as both the request and the job context: a
	// coordinator giving up (timeout, drain) or this worker draining both
	// cancel the simulation promptly.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.jobsCtx, cancel)
	defer stop()

	cells := req.Cells()
	rows, err := g.RunIndices(ctx, cells, nil, nil)
	switch {
	case err == nil:
	case s.jobsCtx.Err() != nil && errors.Is(err, context.Canceled):
		s.metrics.rejected.Add(1)
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	default:
		httpError(w, http.StatusInternalServerError, "lease %s failed: %v", req.Lease, err)
		return
	}
	resp := fleet.LeaseResponse{Lease: req.Lease, Rows: make([]fleet.CellRow, len(cells))}
	for k, i := range cells {
		resp.Rows[k] = fleet.CellRow{Index: i, Row: rows[k]}
	}
	s.metrics.leasesServed.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

// handleFleetRegister admits a worker into the coordinator's fleet. Served
// only when the server runs in coordinator mode.
func (s *Server) handleFleetRegister(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Fleet == nil {
		httpError(w, http.StatusNotFound, "not a coordinator")
		return
	}
	if s.isDraining() {
		s.metrics.rejected.Add(1)
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req fleet.RegisterRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := s.cfg.Fleet.Register(req.Addr); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, fleet.RegisterResponse{Workers: s.cfg.Fleet.NumWorkers()})
}
