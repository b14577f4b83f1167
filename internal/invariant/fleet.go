package invariant

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"softerror/internal/ace"
	"softerror/internal/cache"
	"softerror/internal/fault"
	"softerror/internal/fleet"
	"softerror/internal/rng"
	"softerror/internal/server"
	"softerror/internal/sweep"
)

// chaosPlan is a deterministic, budgeted HTTP fault plan shared by all
// workers of one fleet leg. The budget guarantees the chaos dries up, so a
// run always terminates; hangs are rationed separately because each one
// costs a full lease timeout of wall clock.
type chaosPlan struct {
	mu     sync.Mutex
	s      *rng.Stream
	budget int
	hangs  int
	slowNs int64
}

// decide is the fleet.ChaosFunc: fault only the lease surface (heartbeats
// stay truthful, so suspected workers keep being re-admitted — the harder
// case for the coordinator, which must make progress through a fleet that
// is flaky rather than cleanly dead).
func (p *chaosPlan) decide(worker string, r *http.Request) fleet.Fault {
	if r.URL.Path != "/v1/lease" {
		return fleet.Fault{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.budget <= 0 || !p.s.Bool(0.4) {
		return fleet.Fault{}
	}
	p.budget--
	switch p.s.Intn(4) {
	case 0:
		return fleet.Fault{Kind: fleet.FaultCrash}
	case 1:
		if p.hangs < 1 {
			p.hangs++
			return fleet.Fault{Kind: fleet.FaultHang}
		}
		return fleet.Fault{Kind: fleet.FaultError}
	case 2:
		return fleet.Fault{Kind: fleet.FaultError}
	default:
		return fleet.Fault{Kind: fleet.FaultSlow, Delay: time.Duration(1+p.s.Int63n(p.slowNs)) * time.Nanosecond}
	}
}

// fleetCSV runs the grid through a coordinator driving n in-process worker
// daemons (real server.Server instances behind real TCP listeners), each
// wrapped in the HTTP chaos injector, and renders the rows as CSV.
func fleetCSV(newGrid func() *sweep.Grid, n int, plan *chaosPlan, cfg fleet.Config) ([]byte, fleet.Snapshot, error) {
	co := fleet.NewCoordinator(cfg)
	defer co.Close()
	for w := 0; w < n; w++ {
		name := fmt.Sprintf("worker-%d", w)
		srv := server.New(server.Config{Workers: 2, MaxJobs: 4})
		defer srv.Close()
		var h http.Handler = srv
		if plan != nil {
			h = fleet.ChaosMiddleware(name, plan.decide, srv)
		}
		ts := httptest.NewServer(h)
		defer ts.Close()
		if err := co.Register(ts.Listener.Addr().String()); err != nil {
			return nil, fleet.Snapshot{}, err
		}
	}
	rows, err := co.Run(context.Background(), newGrid(), nil, nil)
	if err != nil {
		return nil, fleet.Snapshot{}, err
	}
	var buf bytes.Buffer
	if err := sweep.WriteCSV(&buf, rows); err != nil {
		return nil, fleet.Snapshot{}, err
	}
	return buf.Bytes(), co.Snapshot(), nil
}

// checkFleetIdentity pins the fleet's headline contract: one random grid
// rendered locally, on a one-worker fleet, and on a three-worker fleet
// whose lease surface crashes, hangs, errors and stalls under an injected
// chaos plan, produces byte-identical CSV. Scheduling, requeues and local
// fallback may all differ run to run — the bytes may not.
func checkFleetIdentity(seed uint64, opt Options) error {
	opt = opt.withDefaults()
	s := rng.New(seed, 0xF1EE)
	newGrid := randomGridSpec(s, opt)

	local, err := gridCSV(newGrid())
	if err != nil {
		return err
	}

	cfg := fleet.Config{
		LeaseCells:     1 + s.Intn(3),
		LeaseTimeout:   2 * time.Second,
		HeartbeatEvery: 25 * time.Millisecond,
	}

	solo, _, err := fleetCSV(newGrid, 1, nil, cfg)
	if err != nil {
		return fmt.Errorf("one-worker fleet: %w", err)
	}
	if !bytes.Equal(local, solo) {
		return fmt.Errorf("one-worker fleet renders different CSV bytes than a local run (%d vs %d bytes)",
			len(solo), len(local))
	}

	plan := &chaosPlan{s: rng.New(seed, 0xC4A0), budget: 6, slowNs: int64(5 * time.Millisecond)}
	flaky, snap, err := fleetCSV(newGrid, 3, plan, cfg)
	if err != nil {
		return fmt.Errorf("chaos fleet: %w", err)
	}
	if !bytes.Equal(local, flaky) {
		return fmt.Errorf("chaos fleet renders different CSV bytes than a local run (%d vs %d bytes)",
			len(flaky), len(local))
	}
	// The accounting must at least be self-consistent: per-worker failures
	// sum to the coordinator's total.
	var failures int64
	for _, w := range snap.Workers {
		failures += w.Failures
	}
	if failures != snap.LeaseFailures {
		return fmt.Errorf("fleet metrics disagree: per-worker failures sum to %d, total is %d",
			failures, snap.LeaseFailures)
	}
	return nil
}

// checkFaultPartition audits the strike-space partition property the fleet
// and the chunked checkpoints both lean on: tallies from an arbitrary
// seed-drawn partition of [0, Strikes), merged in shuffled order, equal the
// single-range campaign's tallies exactly — same counts, same totals, no
// drift from where the cuts fall or the order fragments land.
func checkFaultPartition(seed uint64, opt Options) error {
	opt = opt.withDefaults()
	s := rng.New(seed, 0xFA27)
	params := RandomWorkload(s)
	cfg := RandomPipelineConfig(s)
	tr, err := runTrace(cfg, params, opt.Commits)
	if err != nil {
		return err
	}
	dead := ace.AnalyzeDeadness(tr.CommitLog)
	inj := fault.NewInjector(tr, dead)

	fcfg := fault.Config{
		Strikes: 2000 + s.Intn(3000),
		Seed:    s.Uint64(),
	}
	if s.Bool(0.5) {
		fcfg.Protection = cache.ProtParity
		fcfg.Level = ace.TrackLevel(s.Intn(int(ace.TrackMemory) + 1))
	} else {
		fcfg.Protection = cache.ProtNone
	}

	ctx := context.Background()
	full, err := inj.RunRange(ctx, fcfg, 0, fcfg.Strikes)
	if err != nil {
		return err
	}

	// Draw random ascending cut points, then run the fragments in a
	// shuffled order — merging must be exact AND commutative.
	parts := 2 + s.Intn(6)
	cuts := []int{0}
	for len(cuts) < parts {
		if c := 1 + s.Intn(fcfg.Strikes-1); c > cuts[len(cuts)-1] {
			cuts = append(cuts, c)
		}
	}
	cuts = append(cuts, fcfg.Strikes)
	type frag struct{ lo, hi int }
	frags := make([]frag, 0, len(cuts)-1)
	for i := 0; i+1 < len(cuts); i++ {
		frags = append(frags, frag{cuts[i], cuts[i+1]})
	}
	for i := len(frags) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		frags[i], frags[j] = frags[j], frags[i]
	}

	merged := &fault.Result{}
	for _, f := range frags {
		part, err := inj.RunRange(ctx, fcfg, f.lo, f.hi)
		if err != nil {
			return err
		}
		merged.Merge(part)
	}
	if *merged != *full {
		return fmt.Errorf("%d-way partition merged to %+v, single range tallied %+v (cfg=%+v)",
			len(frags), *merged, *full, fcfg)
	}
	return nil
}
