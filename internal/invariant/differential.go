package invariant

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"softerror/internal/ace"
	"softerror/internal/cache"
	"softerror/internal/checkpoint"
	"softerror/internal/core"
	"softerror/internal/pipeline"
	"softerror/internal/rng"
	"softerror/internal/spec"
	"softerror/internal/sweep"
	"softerror/internal/workload"
)

// runTrace runs the single-step reference interpreter built from (cfg,
// params) on a warmed default hierarchy and returns the materialised
// trace.
func runTrace(cfg pipeline.Config, params workload.Params, commits uint64) (*pipeline.Trace, error) {
	gen, err := workload.New(params)
	if err != nil {
		return nil, err
	}
	p, err := pipeline.New(cfg, gen, workload.WarmedDefault())
	if err != nil {
		return nil, err
	}
	return p.Run(commits, true), nil
}

// laneTrace runs one configuration as a one-lane run of the lane engine
// over its own generator (pipeline.PrivateSource, which serves every
// predictor kind) on a warmed default hierarchy and returns the recorded
// trace.
func laneTrace(cfg pipeline.Config, params workload.Params, commits uint64) (*pipeline.Trace, error) {
	gen, err := workload.New(params)
	if err != nil {
		return nil, err
	}
	src := pipeline.NewPrivateSource(gen)
	rec := pipeline.NewTraceRecorder(cfg, commits)
	st, err := pipeline.RunBatchStreamArena(context.Background(), commits, src,
		[]pipeline.Config{cfg}, []*cache.Hierarchy{workload.WarmedDefault()},
		[]pipeline.BatchSink{pipeline.LiftSink(src, rec)}, nil)
	if err != nil {
		return nil, err
	}
	return rec.Trace(st[0]), nil
}

// checkTraceDifferential cross-validates the lane engine's event-horizon
// fast path against the single-step reference interpreter on one random
// configuration: the traces must be identical in every cycle count,
// residency interval and committed instruction.
func checkTraceDifferential(seed uint64, opt Options) error {
	opt = opt.withDefaults()
	s := rng.New(seed, 0xD1FF)
	params := RandomWorkload(s)
	cfg := RandomPipelineConfig(s)
	// Narrow queues on a third of draws: capacity-limited regimes are where
	// a wrong horizon first shows as a shifted eviction.
	if s.Bool(1.0 / 3) {
		cfg.IQSize = 8
		cfg.StoreBufferSize = 2
	}
	want, err := runTrace(cfg, params, opt.Commits)
	if err != nil {
		return err
	}
	got, err := laneTrace(cfg, params, opt.Commits)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(want, got) {
		return fmt.Errorf("lane trace diverges from the single-step reference "+
			"(cycles %d vs %d, commits %d vs %d, squashes %d vs %d, cfg=%+v)",
			want.Cycles, got.Cycles, want.Commits, got.Commits,
			want.Squashes, got.Squashes, cfg)
	}
	return nil
}

// soloOracle runs one configuration on the reference interpreter and
// analyses its recorded trace with the ace trace analyses: a
// core.RunContext-shaped Result independent of the lane engine, plus the
// trace itself.
func soloOracle(params workload.Params, cfg pipeline.Config, commits uint64, fe, sb, rf bool) (*core.Result, *pipeline.Trace, error) {
	tr, err := runTrace(cfg, params, commits)
	if err != nil {
		return nil, nil, err
	}
	rep := ace.Analyze(tr)
	res := &core.Result{
		Name:           params.Name,
		IPC:            tr.IPC(),
		Report:         rep,
		Cycles:         tr.Cycles,
		Commits:        tr.Commits,
		Squashes:       tr.Squashes,
		Refetches:      tr.Refetches,
		ThrottleEvents: tr.ThrottleEvents,
		LoadMissRateL0: tr.LoadMissRate(cache.LevelL0),
		LoadMissRateL1: tr.LoadMissRate(cache.LevelL1),
	}
	if fe {
		res.FrontEndReport = ace.AnalyzeFrontEnd(tr, rep.Dead)
	}
	if sb {
		res.StoreBufferReport = ace.AnalyzeStoreBuffer(tr, rep.Dead)
	}
	if rf {
		res.RegFile = ace.AnalyzeRegFile(tr, rep.Dead)
	}
	if cfg.OutOfOrder {
		res.ROBReport = ace.AnalyzeROB(tr, rep.Dead)
		res.LSQReport = ace.AnalyzeLSQ(tr, rep.Dead)
		res.TAGEReport = ace.AnalyzeTAGE(tr)
	}
	return res, tr, nil
}

// checkStreamBatch runs ONE random configuration as a one-lane batch with
// every optional analysis and KeepTrace on, and through soloOracle: the
// traces must be equal, and the streamed reports equal to the trace
// analyses exactly — same integrals, same categories, not merely close.
func checkStreamBatch(seed uint64, opt Options) error {
	opt = opt.withDefaults()
	s := rng.New(seed, 0x57BA)
	params := RandomWorkload(s)
	cfg := RandomPipelineConfig(s)
	lane, err := core.RunContext(context.Background(), core.Config{
		Workload: params, Pipeline: cfg, Commits: opt.Commits,
		KeepTrace: true, FrontEnd: true, StoreBuffer: true, RegFile: true,
	})
	if err != nil {
		return err
	}
	want, tr, err := soloOracle(params, cfg, opt.Commits, true, true, true)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(lane.Trace, tr) {
		return fmt.Errorf("lane-recorded trace diverges from the reference interpreter's (cfg=%+v)", cfg)
	}
	lane.Trace = nil
	if !reflect.DeepEqual(lane, want) {
		return fmt.Errorf("streamed reports diverge from trace analysis (cfg=%+v)", cfg)
	}
	return nil
}

// randomGridSpec draws a small random sweep grid: the axes vary per seed so
// a seed sweep covers many benchmark/policy/geometry mixes. The draw is
// returned as a constructor so the same grid can be instantiated several
// times (the determinism checks compare independent runs).
func randomGridSpec(s *rng.Stream, opt Options) func() *sweep.Grid {
	all := spec.All()
	benches := make([]spec.Benchmark, 0, 2)
	first := s.Intn(len(all))
	benches = append(benches, all[first])
	if second := s.Intn(len(all)); second != first {
		benches = append(benches, all[second])
	}
	policies := []core.Policy{core.Policy(s.Intn(core.NumPolicies))}
	if extra := core.Policy(s.Intn(core.NumPolicies)); extra != policies[0] {
		policies = append(policies, extra)
	}
	iqSizes := []int{16 << s.Intn(3)} // 16, 32 or 64
	ooo := []bool{s.Bool(0.5)}
	commits := opt.Commits
	return func() *sweep.Grid {
		return &sweep.Grid{
			Benches:    append([]spec.Benchmark(nil), benches...),
			Policies:   append([]core.Policy(nil), policies...),
			IQSizes:    append([]int(nil), iqSizes...),
			OutOfOrder: append([]bool(nil), ooo...),
			Commits:    commits,
		}
	}
}

// gridCSV runs the grid and renders its rows with the shared CSV writer.
func gridCSV(g *sweep.Grid) ([]byte, error) {
	rows, err := g.Run(nil)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := sweep.WriteCSV(&buf, rows); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkParallelDeterminism renders one random grid at -j 1 and -j N and
// compares the CSV artefacts byte for byte.
func checkParallelDeterminism(seed uint64, opt Options) error {
	opt = opt.withDefaults()
	s := rng.New(seed, 0x9A12)
	newGrid := randomGridSpec(s, opt)

	serial := newGrid()
	serial.Workers = 1
	serialCSV, err := gridCSV(serial)
	if err != nil {
		return err
	}
	fanned := newGrid()
	fanned.Workers = opt.Workers
	fannedCSV, err := gridCSV(fanned)
	if err != nil {
		return err
	}
	if !bytes.Equal(serialCSV, fannedCSV) {
		return fmt.Errorf("-j 1 and -j %d render different CSV bytes (%d vs %d bytes)",
			opt.Workers, len(serialCSV), len(fannedCSV))
	}
	return nil
}

// checkCheckpointResume cancels a random grid partway through — from its
// own progress callback, as a SIGINT or server drain would — then resumes
// from the checkpoint and demands bytes identical to an uninterrupted run.
// The cancellation point is seed-drawn, so a seed sweep kills the campaign
// at many different depths.
func checkCheckpointResume(seed uint64, opt Options) error {
	opt = opt.withDefaults()
	s := rng.New(seed, 0xC4E5)
	newGrid := randomGridSpec(s, opt)

	straight, err := gridCSV(newGrid())
	if err != nil {
		return err
	}

	dir, err := os.MkdirTemp("", "invariant-ckpt-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "grid.ckpt")

	g := newGrid()
	killAt := 1 + s.Intn(g.Size())
	ck, err := checkpoint.Open[sweep.Row](path, "sweep", g.Fingerprint(), g.Size(), false)
	if err != nil {
		return err
	}
	ck.SetInterval(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, runErr := g.RunContext(ctx, ck, func(done, total int) {
		if done >= killAt {
			cancel()
		}
	})
	// killAt == Size() can let the run finish before the cancel lands; both
	// a cancelled and a completed first leg must resume to the same bytes.
	if runErr != nil && ctx.Err() == nil {
		return fmt.Errorf("interrupted leg failed for a non-cancellation reason: %w", runErr)
	}

	resumed := newGrid()
	ck2, err := checkpoint.Open[sweep.Row](path, "sweep", resumed.Fingerprint(), resumed.Size(), true)
	if err != nil {
		return fmt.Errorf("reopening checkpoint: %w", err)
	}
	rows, err := resumed.RunContext(context.Background(), ck2, nil)
	if err != nil {
		return fmt.Errorf("resumed leg: %w", err)
	}
	var buf bytes.Buffer
	if err := sweep.WriteCSV(&buf, rows); err != nil {
		return err
	}
	if !bytes.Equal(straight, buf.Bytes()) {
		return fmt.Errorf("resumed CSV differs from uninterrupted run (killed after %d of %d cells)",
			killAt, g.Size())
	}
	return nil
}
