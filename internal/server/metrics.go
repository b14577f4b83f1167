package server

import (
	"expvar"
	"time"

	"softerror/internal/core"
	"softerror/internal/workload"
)

// metrics are the service's expvar-backed counters. The map is owned by
// the Server instead of being published through expvar's global registry,
// so tests (and embedders) can run any number of servers in one process —
// expvar.Publish panics on duplicate names.
type metrics struct {
	vars *expvar.Map

	requests        *expvar.Int // every HTTP request, any route or status
	rejected        *expvar.Int // 429s and 503s from admission control / drain
	rejectedCost    *expvar.Int // 422s from the static-cost admission budget
	sweepsPriced    *expvar.Int // sweep grids the static cost model priced
	cacheHits       *expvar.Int // evals served from the result cache
	cacheMisses     *expvar.Int // evals that had to simulate
	evalsInFlight   *expvar.Int // evals currently computing
	jobsInFlight    *expvar.Int // sweep jobs currently holding a worker slot
	jobsQueued      *expvar.Int // accepted sweep jobs waiting for a slot
	jobsDone        *expvar.Int // terminal: every cell completed
	jobsFailed      *expvar.Int // terminal: grid error
	jobsInterrupted *expvar.Int // terminal: drained mid-flight
	leasesServed    *expvar.Int // fleet leases executed to completion
	boundQueries    *expvar.Int // /v1/bound requests received
	boundsServed    *expvar.Int // bounds answered (cache hit or static analysis)
}

// newMetrics wires the counter set plus derived gauges: simulated cycle
// totals from the process-wide core counter, stream decodes, hits and kept
// bytes from the process-wide stream store, and a cumulative Mcycles/s
// throughput gauge since start.
func newMetrics(start time.Time, cache *Cache) *metrics {
	m := &metrics{vars: new(expvar.Map).Init()}
	counter := func(name string) *expvar.Int {
		v := new(expvar.Int)
		m.vars.Set(name, v)
		return v
	}
	m.requests = counter("requests")
	m.rejected = counter("rejected")
	m.rejectedCost = counter("sweeps_rejected_cost")
	m.sweepsPriced = counter("sweeps_priced")
	m.cacheHits = counter("cache_hits")
	m.cacheMisses = counter("cache_misses")
	m.evalsInFlight = counter("evals_in_flight")
	m.jobsInFlight = counter("jobs_in_flight")
	m.jobsQueued = counter("jobs_queued")
	m.jobsDone = counter("jobs_done")
	m.jobsFailed = counter("jobs_failed")
	m.jobsInterrupted = counter("jobs_interrupted")
	m.leasesServed = counter("leases_served")
	m.boundQueries = counter("bound_queries")
	m.boundsServed = counter("bounds_served")
	m.vars.Set("cache_entries", expvar.Func(func() any { return cache.Len() }))
	m.vars.Set("cache_bytes", expvar.Func(func() any { return cache.Bytes() }))
	m.vars.Set("mcycles_simulated", expvar.Func(func() any {
		return float64(core.CyclesSimulated()) / 1e6
	}))
	streams := workload.Streams()
	m.vars.Set("streams_decoded", expvar.Func(func() any { return streams.Decodes() }))
	m.vars.Set("stream_hits", expvar.Func(func() any { return streams.Hits() }))
	m.vars.Set("stream_bytes", expvar.Func(func() any { return streams.Bytes() }))
	m.vars.Set("mcycles_per_sec", expvar.Func(func() any {
		secs := time.Since(start).Seconds()
		if secs <= 0 {
			return 0.0
		}
		return float64(core.CyclesSimulated()) / 1e6 / secs
	}))
	return m
}
