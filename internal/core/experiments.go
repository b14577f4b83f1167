package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"softerror/internal/ace"
	"softerror/internal/cache"
	"softerror/internal/checkpoint"
	"softerror/internal/fault"
	"softerror/internal/par"
	"softerror/internal/pipeline"
	"softerror/internal/serate"
	"softerror/internal/spec"
)

// Suite evaluates a benchmark roster under multiple policies, memoising
// each (benchmark, policy) simulation so that the experiment drivers —
// which reuse baseline and squash runs heavily — pay for each run once. It
// also memoises, per benchmark, the rows of the two studies that run their
// own simulations: the register-file study's RegFileRow and the protection
// study's AVF inputs. It keeps those rows rather than their Results: a
// Result with uncompacted deadness is about 1 MB, and a long-lived service
// retains its suites.
//
// A Suite is safe for concurrent use: the memo is mutex-guarded and
// single-flighted, so any number of drivers racing on the same cell execute
// exactly one simulation. Prewarm fans all cells of an artefact out over the
// worker pool, and PrewarmAll fills every cell of the whole evaluation in
// one walk over the roster; the aggregation loops in the drivers then read
// memoised results in roster order, which keeps every artefact
// byte-identical at any worker count.
type Suite struct {
	Benches []spec.Benchmark
	// Commits is the per-run commit budget.
	Commits uint64
	// Workers bounds the suite's parallelism over the roster; <= 0 means
	// the par package default (GOMAXPROCS, or the -j flag of the calling
	// command).
	Workers int
	// Ctx, when non-nil, threads cancellation into every simulation the
	// suite runs: SIGINT-aware drivers set it so an interrupt aborts within
	// one simulation. Nil means context.Background().
	Ctx context.Context
	// OutOfOrder selects the out-of-order core family (ROB, LSQ, TAGE)
	// for the policy simulations. Set it before the first Result/Prewarm
	// call: the memo does not key on it. The register-file and protection
	// studies always run the in-order core.
	OutOfOrder bool

	mu         sync.Mutex
	results    map[suiteKey]*flight[*Result]
	regfile    map[string]*flight[RegFileRow]
	protection map[string]*flight[protectionInputs]
	sims       atomic.Uint64
}

// ctx resolves the suite's cancellation context.
func (s *Suite) ctx() context.Context {
	if s.Ctx != nil {
		return s.Ctx
	}
	return context.Background()
}

// suiteKey identifies one memo cell. A comparable struct key keeps the hot
// lookup allocation-free (no fmt formatting) and cannot collide the way a
// formatted string could.
type suiteKey struct {
	name string
	pol  Policy
}

// flight single-flights one memo cell: the first caller to claim the cell
// computes it and settles it; every other caller blocks in wait and reads
// the shared outcome.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

func (f *flight[V]) settle(v V, err error) {
	f.val, f.err = v, err
	close(f.done)
}

func (f *flight[V]) wait() (V, error) {
	<-f.done
	return f.val, f.err
}

// claim returns key's cell in m, creating it when absent; own reports that
// the caller created it and so must settle it. The caller holds the
// suite's mutex.
func claim[K comparable, V any](m map[K]*flight[V], key K) (f *flight[V], own bool) {
	if f, ok := m[key]; ok {
		return f, false
	}
	f = &flight[V]{done: make(chan struct{})}
	m[key] = f
	return f, true
}

// memoised returns key's value in m, computing it with fn when no other
// caller has claimed the cell.
func memoised[K comparable, V any](s *Suite, m map[K]*flight[V], key K, fn func() (V, error)) (V, error) {
	s.mu.Lock()
	f, own := claim(m, key)
	s.mu.Unlock()
	if own {
		f.settle(fn())
	}
	return f.wait()
}

// NewSuite builds a Suite over the given roster (nil means spec.All()).
func NewSuite(benches []spec.Benchmark, commits uint64) *Suite {
	if benches == nil {
		benches = spec.All()
	}
	if commits == 0 {
		commits = DefaultCommits
	}
	return &Suite{
		Benches:    benches,
		Commits:    commits,
		results:    make(map[suiteKey]*flight[*Result]),
		regfile:    make(map[string]*flight[RegFileRow]),
		protection: make(map[string]*flight[protectionInputs]),
	}
}

// Result returns the memoised simulation of one benchmark under a policy,
// simulating it on first request. Concurrent calls for the same cell block
// until the one executing simulation finishes.
func (s *Suite) Result(b spec.Benchmark, pol Policy) (*Result, error) {
	s.mu.Lock()
	f, ok := s.results[suiteKey{name: b.Name, pol: pol}]
	s.mu.Unlock()
	if ok {
		return f.wait()
	}
	// A cold cell runs as a one-policy batch on a pooled arena. The batch
	// settles the cell, failed or not, so the lookup then finds it.
	a := defaultArenas.Get()
	s.prewarmBench(a, b, []Policy{pol})
	defaultArenas.Put(a)
	return s.Result(b, pol)
}

// Simulations reports how many policy simulations the suite has actually
// executed (Result memo misses). With single-flighting this never exceeds
// the number of distinct (benchmark, policy) cells requested. The
// register-file and protection studies' runs are not counted.
func (s *Suite) Simulations() uint64 { return s.sims.Load() }

// AllPolicies returns every exposure policy, in declaration order.
func AllPolicies() []Policy {
	pols := make([]Policy, NumPolicies)
	for i := range pols {
		pols[i] = Policy(i)
	}
	return pols
}

// eachBench runs fn once per roster benchmark over the worker pool, each
// call on an arena checked out for it alone. Simulations run under the
// suite's context, not the pool's: a memo cell settled by a sibling's
// failure would hold that cancellation for good.
func (s *Suite) eachBench(fn func(a *Arena, i int) error) error {
	return par.ForEach(s.ctx(), len(s.Benches), s.Workers,
		func(_ context.Context, i int) error {
			a := defaultArenas.Get()
			defer defaultArenas.Put(a)
			return fn(a, i)
		})
}

// Prewarm simulates every (benchmark, policy) cell of the cross product,
// one batched evaluation per benchmark: all requested policies share one
// decode of the benchmark's instruction stream (core.RunBatchArena), and
// the benchmarks fan out over the worker pool. Subsequent driver loops
// then run entirely from the memo. Passing no policies prewarms all of
// them. Cells already simulated cost nothing; concurrent Prewarms dedupe
// through the single-flight memo — a batch claims only unclaimed cells and
// awaits the rest. The first simulation error cancels outstanding work.
func (s *Suite) Prewarm(policies ...Policy) error {
	if len(policies) == 0 {
		policies = AllPolicies()
	}
	return s.eachBench(func(a *Arena, i int) error {
		return s.prewarmBench(a, s.Benches[i], policies)
	})
}

// table1Policies are Table 1's design points, which the out-of-order
// structure table shares; throttlePolicies are the two the throttling
// ablation adds to them.
var (
	table1Policies   = []Policy{PolicyBaseline, PolicySquashL1, PolicySquashL0}
	throttlePolicies = []Policy{PolicyThrottleL1, PolicyThrottleL0}
)

// PrewarmAll fills every memo cell the full evaluation reads, walking the
// roster once. Each benchmark runs on one arena, in this order: Table 1's
// batch in the suite's core family, the ablation's throttle batch, the
// register-file lane and the protection study's in-order batch. Run back
// to back, the four share the arena's one decoded stream and its deadness
// memos, where four walks over the roster would decode every benchmark
// four times. The batches keep the shapes the drivers run alone: merged
// into one, they cost the same CPU at a higher peak memory.
func (s *Suite) PrewarmAll() error {
	return s.eachBench(func(a *Arena, i int) error {
		b := s.Benches[i]
		if err := s.prewarmBench(a, b, table1Policies); err != nil {
			return err
		}
		if err := s.prewarmBench(a, b, throttlePolicies); err != nil {
			return err
		}
		if _, err := s.regFileRow(a, b); err != nil {
			return err
		}
		_, err := s.protectionInputs(a, b)
		return err
	})
}

// prewarmBench fills one benchmark's memo cells on arena a: it claims every
// cell no other caller holds, runs the claimed set as one batch, then waits
// on (and propagates errors from) the remaining cells.
func (s *Suite) prewarmBench(a *Arena, b spec.Benchmark, policies []Policy) error {
	var claimed []Policy
	var cells []*flight[*Result]
	s.mu.Lock()
	for _, pol := range policies {
		if f, own := claim(s.results, suiteKey{name: b.Name, pol: pol}); own {
			claimed = append(claimed, pol)
			cells = append(cells, f)
		}
	}
	s.mu.Unlock()

	if len(claimed) > 0 {
		results, err := s.simulateBatch(a, b, claimed)
		for i, f := range cells {
			if err != nil {
				f.settle(nil, err)
			} else {
				f.settle(results[i], nil)
			}
		}
	}
	var first error
	for _, pol := range policies {
		if _, err := s.Result(b, pol); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// simulateBatch runs one benchmark's policy set through the batched
// evaluation path on arena a, releasing each result's per-instruction
// classification map: the drivers only need the aggregate report and
// distance populations.
func (s *Suite) simulateBatch(a *Arena, b spec.Benchmark, pols []Policy) ([]*Result, error) {
	results, err := RunBatchArena(s.ctx(), a, b.Params, s.Commits, policySpecs(pols, s.OutOfOrder))
	if err != nil {
		return nil, fmt.Errorf("core: %s under %v: %w", b.Name, pols, err)
	}
	s.sims.Add(uint64(len(pols)))
	for _, r := range results {
		r.Report.Dead.Compact()
	}
	return results, nil
}

// policySpecs returns one default-configuration lane per policy, in the
// given core family.
func policySpecs(pols []Policy, ooo bool) []BatchSpec {
	specs := make([]BatchSpec, len(pols))
	for i, pol := range pols {
		cfg := pipeline.DefaultConfig()
		cfg.OutOfOrder = ooo
		pol.Apply(&cfg)
		specs[i] = BatchSpec{Pipeline: cfg}
	}
	return specs
}

// ---------------------------------------------------------------------------
// Table 1: impact of squashing on IPC and the IQ's SDC and DUE AVFs.

// Table1Row is one design point of Table 1.
type Table1Row struct {
	Policy Policy
	IPC    float64
	SDCAVF float64
	DUEAVF float64
	// MeritSDC and MeritDUE are IPC/SDC-AVF and IPC/DUE-AVF, the paper's
	// MITF-proportional figures of merit.
	MeritSDC float64
	MeritDUE float64
}

// Table1 reproduces Table 1: means across the roster for the baseline and
// both squash triggers.
func (s *Suite) Table1() ([]Table1Row, error) {
	pols := table1Policies
	if err := s.Prewarm(pols...); err != nil {
		return nil, err
	}
	rows := make([]Table1Row, 0, 3)
	for _, pol := range pols {
		var ipc, sdc, due float64
		for _, b := range s.Benches {
			r, err := s.Result(b, pol)
			if err != nil {
				return nil, err
			}
			ipc += r.IPC
			sdc += r.Report.SDCAVF()
			due += r.Report.DUEAVF()
		}
		n := float64(len(s.Benches))
		ipc, sdc, due = ipc/n, sdc/n, due/n
		rows = append(rows, Table1Row{
			Policy:   pol,
			IPC:      ipc,
			SDCAVF:   sdc,
			DUEAVF:   due,
			MeritSDC: serate.Merit(ipc, sdc),
			MeritDUE: serate.Merit(ipc, due),
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Out-of-order structures: per-policy AVFs of the ROB, LSQ and TAGE tables.

// StructuresRow is one design point of the out-of-order structure table:
// roster means of the extra structures' vulnerability under one policy.
type StructuresRow struct {
	Policy Policy
	IPC    float64
	// ROB AVFs (instruction-entry bits, retire is the read point).
	ROBSDC float64
	ROBDUE float64
	// LSQ AVFs (address + data bits, store-to-load forwarding reads).
	LSQSDC float64
	LSQDUE float64
	// TAGE false DUE (predictor state is never architecturally ACE, so
	// its SDC contribution is structurally zero).
	TAGEFalseDUE float64
}

// Structures reports the out-of-order family's extra structures — reorder
// buffer, load/store queue and TAGE tables — under the baseline and both
// squash triggers, answering whether squash-on-miss still pays off when
// the window reorders. The suite must have OutOfOrder set: the in-order
// family has none of these structures.
func (s *Suite) Structures() ([]StructuresRow, error) {
	if !s.OutOfOrder {
		return nil, fmt.Errorf("core: Structures needs an out-of-order suite (set Suite.OutOfOrder)")
	}
	pols := table1Policies
	if err := s.Prewarm(pols...); err != nil {
		return nil, err
	}
	rows := make([]StructuresRow, 0, len(pols))
	for _, pol := range pols {
		var row StructuresRow
		row.Policy = pol
		for _, b := range s.Benches {
			r, err := s.Result(b, pol)
			if err != nil {
				return nil, err
			}
			if r.ROBReport == nil || r.LSQReport == nil || r.TAGEReport == nil {
				return nil, fmt.Errorf("core: %s under %v produced no out-of-order reports", b.Name, pol)
			}
			row.IPC += r.IPC
			row.ROBSDC += r.ROBReport.SDCAVF()
			row.ROBDUE += r.ROBReport.DUEAVF()
			row.LSQSDC += r.LSQReport.SDCAVF()
			row.LSQDUE += r.LSQReport.DUEAVF()
			row.TAGEFalseDUE += r.TAGEReport.FalseDUEAVF()
		}
		n := float64(len(s.Benches))
		row.IPC /= n
		row.ROBSDC /= n
		row.ROBDUE /= n
		row.LSQSDC /= n
		row.LSQDUE /= n
		row.TAGEFalseDUE /= n
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figure 2: coverage of the IQ's false DUE AVF by the tracking stack.

// TrackingLevels are the cumulative mechanisms of Figure 2, in deployment
// order.
var TrackingLevels = []ace.TrackLevel{
	ace.TrackCommit, ace.TrackAntiPi, ace.TrackPET,
	ace.TrackRegFile, ace.TrackStoreBuffer, ace.TrackMemory,
}

// Figure2Row is one benchmark's false-DUE coverage profile.
type Figure2Row struct {
	Bench string
	FP    bool
	// BaseFalseDUE is the untracked false DUE AVF.
	BaseFalseDUE float64
	// Remaining[i] is the false DUE AVF left after deploying
	// TrackingLevels[:i+1].
	Remaining [6]float64
}

// CoveredFrac returns the fraction of the base false DUE AVF removed by
// level index i (cumulative).
func (r *Figure2Row) CoveredFrac(i int) float64 {
	if r.BaseFalseDUE == 0 {
		return 0
	}
	return 1 - r.Remaining[i]/r.BaseFalseDUE
}

// Figure2 reproduces Figure 2: per-benchmark false-DUE coverage under the
// cumulative tracking stack, on the baseline (no squashing) machine with a
// PET buffer of petEntries entries.
func (s *Suite) Figure2(petEntries int) ([]Figure2Row, error) {
	return s.Figure2Under(PolicyBaseline, petEntries)
}

// Figure2Under measures the same coverage stack under an exposure policy —
// the §6.3 combination, where squashing shrinks the base false-DUE AVF the
// stack then covers.
func (s *Suite) Figure2Under(pol Policy, petEntries int) ([]Figure2Row, error) {
	if petEntries <= 0 {
		petEntries = 512
	}
	if err := s.Prewarm(pol); err != nil {
		return nil, err
	}
	rows := make([]Figure2Row, 0, len(s.Benches))
	for _, b := range s.Benches {
		r, err := s.Result(b, pol)
		if err != nil {
			return nil, err
		}
		row := Figure2Row{Bench: b.Name, FP: b.FP, BaseFalseDUE: r.Report.FalseDUEAVF()}
		for i, lvl := range TrackingLevels {
			row.Remaining[i] = r.Report.FalseDUERemaining(lvl, petEntries)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Figure2Mean averages rows into a single coverage profile, optionally
// restricted to integer or floating-point benchmarks (fpOnly == nil means
// all).
func Figure2Mean(rows []Figure2Row, fpOnly *bool) Figure2Row {
	mean := Figure2Row{Bench: "mean"}
	n := 0
	for _, r := range rows {
		if fpOnly != nil && r.FP != *fpOnly {
			continue
		}
		mean.BaseFalseDUE += r.BaseFalseDUE
		for i := range r.Remaining {
			mean.Remaining[i] += r.Remaining[i]
		}
		n++
	}
	if n == 0 {
		return mean
	}
	mean.BaseFalseDUE /= float64(n)
	for i := range mean.Remaining {
		mean.Remaining[i] /= float64(n)
	}
	return mean
}

// ---------------------------------------------------------------------------
// Figure 3: FDD coverage versus PET-buffer size.

// Figure3Row is one PET size's coverage of the dead populations.
type Figure3Row struct {
	Entries int
	// FDDReg covers plain first-level dead register writes; WithReturns
	// adds return-dead locals to the tracked population; WithMemory adds
	// dead stores as well — the three curves of Figure 3.
	FDDReg      float64
	WithReturns float64
	WithMemory  float64
}

// DefaultPETSizes is the sweep of Figure 3 (powers of two through the
// paper's "about 10,000 entries" observation).
var DefaultPETSizes = []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384}

// Figure3 reproduces Figure 3: coverage of the FDD populations, pooled
// across the roster's baseline runs, as a function of PET size.
func (s *Suite) Figure3(sizes []int) ([]Figure3Row, error) {
	if sizes == nil {
		sizes = DefaultPETSizes
	}
	if err := s.Prewarm(PolicyBaseline); err != nil {
		return nil, err
	}
	var reg, ret, mem []int
	for _, b := range s.Benches {
		r, err := s.Result(b, PolicyBaseline)
		if err != nil {
			return nil, err
		}
		d := r.Report.Dead
		reg = append(reg, d.FDDRegDist...)
		ret = append(ret, d.FDDRetDist...)
		mem = append(mem, d.FDDMemDist...)
	}
	regRet := append(append([]int{}, reg...), ret...)
	all := append(append([]int{}, regRet...), mem...)
	rows := make([]Figure3Row, 0, len(sizes))
	for _, n := range sizes {
		rows = append(rows, Figure3Row{
			Entries:     n,
			FDDReg:      ace.PETCoverage(reg, n),
			WithReturns: ace.PETCoverage(regRet, n),
			WithMemory:  ace.PETCoverage(all, n),
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figure 4: combining squashing with π-bit tracking.

// Figure4Row is one benchmark's combined-technique summary.
type Figure4Row struct {
	Bench string
	FP    bool
	// RelSDC is (squash-L1 SDC AVF) / (baseline SDC AVF) on the
	// unprotected queue.
	RelSDC float64
	// RelDUE is (squash-L1 + π-to-store-buffer DUE AVF) / (baseline DUE
	// AVF) on the parity-protected queue.
	RelDUE float64
	// RelIPC is squash-L1 IPC / baseline IPC.
	RelIPC float64
}

// Figure4 reproduces Figure 4: squashing on L1 misses for the unprotected
// queue's SDC AVF, and squashing plus π-bit tracking to the store-buffer
// commit point (option 3 of §4.3.3) for the parity queue's DUE AVF.
func (s *Suite) Figure4() ([]Figure4Row, error) {
	if err := s.Prewarm(PolicyBaseline, PolicySquashL1); err != nil {
		return nil, err
	}
	rows := make([]Figure4Row, 0, len(s.Benches))
	for _, b := range s.Benches {
		base, err := s.Result(b, PolicyBaseline)
		if err != nil {
			return nil, err
		}
		sq, err := s.Result(b, PolicySquashL1)
		if err != nil {
			return nil, err
		}
		row := Figure4Row{Bench: b.Name, FP: b.FP, RelSDC: 1, RelDUE: 1, RelIPC: 1}
		if v := base.Report.SDCAVF(); v > 0 {
			row.RelSDC = sq.Report.SDCAVF() / v
		}
		if v := base.Report.DUEAVF(); v > 0 {
			combined := sq.Report.TrueDUEAVF() +
				sq.Report.FalseDUERemaining(ace.TrackStoreBuffer, 512)
			row.RelDUE = combined / v
		}
		if base.IPC > 0 {
			row.RelIPC = sq.IPC / base.IPC
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// §4.1 occupancy breakdown and Figure 1 outcome taxonomy.

// BreakdownRow decomposes one benchmark's IQ occupancy (§4.1: the paper
// reports 29% ACE, 30% idle, 8% Ex-ACE, 33% valid un-ACE on average).
type BreakdownRow struct {
	Bench     string
	FP        bool
	Idle      float64
	NeverRead float64
	ExACE     float64
	UnACE     float64
	ACE       float64
}

// Breakdown reports the baseline occupancy decomposition per benchmark.
func (s *Suite) Breakdown() ([]BreakdownRow, error) {
	if err := s.Prewarm(PolicyBaseline); err != nil {
		return nil, err
	}
	rows := make([]BreakdownRow, 0, len(s.Benches))
	for _, b := range s.Benches {
		r, err := s.Result(b, PolicyBaseline)
		if err != nil {
			return nil, err
		}
		rep := r.Report
		rows = append(rows, BreakdownRow{
			Bench:     b.Name,
			FP:        b.FP,
			Idle:      rep.IdleFraction(),
			NeverRead: rep.NeverReadFraction(),
			ExACE:     rep.ExACEFraction(),
			UnACE:     rep.FalseDUEAVF(),
			ACE:       rep.SDCAVF(),
		})
	}
	return rows, nil
}

// OutcomeRow tallies a fault-injection campaign (Figure 1's taxonomy).
type OutcomeRow struct {
	Label   string
	Strikes uint64
	Counts  [fault.NumOutcomes]uint64
}

// OutcomeConfigs builds the Figure-1 configuration ladder — the unprotected
// queue, the conservative parity queue, and parity with each tracking level
// — with the given strike budget and seed each. The labels parallel the
// configs.
func OutcomeConfigs(strikes int, seed uint64) (labels []string, cfgs []fault.Config) {
	labels = []string{"unprotected", "parity"}
	cfgs = []fault.Config{
		{Protection: cache.ProtNone},
		{Protection: cache.ProtParity, Level: ace.TrackNever},
	}
	for _, lvl := range TrackingLevels {
		labels = append(labels, fmt.Sprintf("parity+%v", lvl))
		cfgs = append(cfgs, fault.Config{Protection: cache.ProtParity, Level: lvl})
	}
	for i := range cfgs {
		cfgs[i].Strikes = strikes
		cfgs[i].Seed = seed
	}
	return labels, cfgs
}

// OutcomesPlan returns the checkpoint geometry of an Outcomes campaign: the
// cell count and the campaign fingerprint (mixing in the trace identity, so
// a snapshot can never resume against a different trace). Drivers use it to
// open a checkpoint.File[fault.Result] before running OutcomesCampaign.
func OutcomesPlan(b spec.Benchmark, commits uint64, strikes int, seed uint64) (cells int, fingerprint string) {
	if commits == 0 {
		commits = DefaultCommits
	}
	_, cfgs := OutcomeConfigs(strikes, seed)
	camp := &fault.Campaign{Configs: cfgs}
	return camp.Cells(), checkpoint.Fingerprint("outcomes", b.Name, commits, camp.Fingerprint())
}

// Outcomes runs fault-injection campaigns on one benchmark: the unprotected
// queue, the conservative parity queue, and parity with each tracking
// level, with the given number of strikes each.
func Outcomes(b spec.Benchmark, commits uint64, strikes int, seed uint64) ([]OutcomeRow, error) {
	return OutcomesCampaign(context.Background(), b, commits, strikes, seed, 0, nil)
}

// OutcomesCampaign is Outcomes with cancellation, worker-pool control and an
// optional checkpoint: completed cells are restored instead of re-run, and
// on interruption the completed work is flushed to the snapshot. Per-strike
// RNG streams keep the output byte-identical regardless of worker count or
// how many times the campaign was interrupted and resumed.
func OutcomesCampaign(ctx context.Context, b spec.Benchmark, commits uint64, strikes int, seed uint64, workers int, ck *checkpoint.File[fault.Result]) ([]OutcomeRow, error) {
	if commits == 0 {
		commits = DefaultCommits
	}
	// Stream the simulation: the ace collector integrates the AVFs while a
	// teed recorder (pooled: figure drivers run one campaign per roster
	// benchmark, and the interval/log buffers dominate each) retains just
	// the IQ intervals and commit log the injector samples — no full trace
	// is materialised.
	rec := fault.GetStreamRecorder(commits)
	res, err := RunContext(ctx, Config{Workload: b.Params, Commits: commits, Sink: rec})
	if err != nil {
		return nil, err
	}
	labels, cfgs := OutcomeConfigs(strikes, seed)
	camp := &fault.Campaign{
		Injector:   rec.Injector(res.Cycles, res.Report.Entries, res.Report.Dead),
		Configs:    cfgs,
		Opts:       par.Options{Workers: workers},
		Checkpoint: ck,
	}
	campaigns, err := camp.Run(ctx)
	if err != nil {
		return nil, err
	}
	// The campaign results hold only outcome tallies — nothing aliases the
	// recorded stream once Run returns — so the buffers can recycle.
	rec.Release()
	return OutcomeRows(labels, campaigns), nil
}

// OutcomeRows pairs a campaign's results with OutcomeConfigs' labels.
func OutcomeRows(labels []string, results []*fault.Result) []OutcomeRow {
	rows := make([]OutcomeRow, len(results))
	for i, r := range results {
		rows[i] = OutcomeRow{Label: labels[i], Strikes: r.Strikes, Counts: r.Counts}
	}
	return rows
}

// ---------------------------------------------------------------------------
// Ablation: fetch throttling versus squashing (§3.1 reports throttling adds
// nothing beyond squashing; the paper omits its numbers).

// AblationRow compares a policy against the baseline.
type AblationRow struct {
	Policy   Policy
	IPC      float64
	SDCAVF   float64
	MeritSDC float64
}

// ThrottleAblation evaluates squash and throttle actions at both trigger
// levels against the baseline, averaged over the roster.
func (s *Suite) ThrottleAblation() ([]AblationRow, error) {
	policies := []Policy{
		PolicyBaseline, PolicySquashL1, PolicyThrottleL1,
		PolicySquashL0, PolicyThrottleL0,
	}
	if err := s.Prewarm(policies...); err != nil {
		return nil, err
	}
	rows := make([]AblationRow, 0, len(policies))
	for _, pol := range policies {
		var ipc, sdc float64
		for _, b := range s.Benches {
			r, err := s.Result(b, pol)
			if err != nil {
				return nil, err
			}
			ipc += r.IPC
			sdc += r.Report.SDCAVF()
		}
		n := float64(len(s.Benches))
		rows = append(rows, AblationRow{
			Policy:   pol,
			IPC:      ipc / n,
			SDCAVF:   sdc / n,
			MeritSDC: serate.Merit(ipc/n, sdc/n),
		})
	}
	return rows, nil
}

// RegFileRow is one benchmark's register-file vulnerability summary (the
// conclusion's "other structures" extension).
type RegFileRow struct {
	Bench string
	FP    bool

	SDCAVF      float64
	FalseDUEAVF float64
	ExACE       float64
	Untouched   float64
}

// RegFile measures the architectural register files' AVF decomposition
// across the roster's baseline runs. Each benchmark's row is memoised with
// the suite; a miss runs one in-order baseline lane with the register
// analysis (it needs commit cycles and uncompacted deadness, so it cannot
// read the policy memo), and misses fan out over the worker pool.
func (s *Suite) RegFile() ([]RegFileRow, error) {
	rows := make([]RegFileRow, len(s.Benches))
	err := s.eachBench(func(a *Arena, i int) (err error) {
		rows[i], err = s.regFileRow(a, s.Benches[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// regFileRow returns b's memoised register-file row, running its lane on
// arena a on a miss.
func (s *Suite) regFileRow(a *Arena, b spec.Benchmark) (RegFileRow, error) {
	return memoised(s, s.regfile, b.Name, func() (RegFileRow, error) {
		res, err := runLanes(s.ctx(), a, b.Params, s.Commits, []Config{{RegFile: true}})
		if err != nil {
			return RegFileRow{}, fmt.Errorf("core: regfile %s: %w", b.Name, err)
		}
		rf := res[0].RegFile
		return RegFileRow{
			Bench:       b.Name,
			FP:          b.FP,
			SDCAVF:      rf.SDCAVF(),
			FalseDUEAVF: rf.FalseDUEAVF(),
			ExACE:       rf.ExACEFraction(),
			Untouched:   rf.UntouchedFraction(),
		}, nil
	})
}

// GeoMean returns the geometric mean of strictly positive values; zero or
// negative inputs are skipped.
func GeoMean(vals []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vals {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
