package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"

	"softerror/internal/core"
	"softerror/internal/experiments"
	"softerror/internal/fault"
	"softerror/internal/par"
	"softerror/internal/spec"
)

// repro-all: `repro all` at its defaults, what a reader of the paper
// waits for — the only workload on the solo (trace-analysis) path and on
// fault injection. The seed is the fault-injection seed.

const (
	reproStrikes = 50_000
	// reproPassSeconds is one `repro all` on the 2-vCPU reference host.
	reproPassSeconds = 6.0
)

// reproParams mirrors cmd/repro's flag defaults with workers simulation
// workers.
func (o options) reproParams(workers int) experiments.Params {
	commits, strikes := o.commits, o.strikes
	if commits == 0 {
		commits = core.DefaultCommits
	}
	if strikes == 0 {
		strikes = reproStrikes
	}
	benches := spec.All()
	suite := core.NewSuite(benches, commits)
	suite.Workers = workers
	return experiments.Params{
		Suite: suite, Benches: benches, Commits: commits,
		PET: 512, RawFIT: 0.001, SimPoints: 4,
		Strikes: strikes, Seed: o.seed, Jobs: workers,
	}
}

// reproExpected is the expected `repro all` output. At the defaults it is
// results/repro_all.txt; another seed changes only the closing outcomes
// table, which an untimed single-worker run of that experiment supplies.
// Overridden sizes take an untimed single-worker run of everything.
func reproExpected(ctx context.Context, o options) ([]byte, error) {
	var buf bytes.Buffer
	if o.commits != 0 || o.strikes != 0 {
		err := experiments.Run(ctx, &buf, "all", o.reproParams(1), false)
		return buf.Bytes(), err
	}
	golden, err := os.ReadFile(filepath.Join(o.root, "results", "repro_all.txt"))
	if err != nil || o.seed == 1 {
		return golden, err
	}
	i := bytes.Index(golden, []byte("\nFigure 1: fault-outcome taxonomy"))
	if i < 0 {
		return nil, fmt.Errorf("repro_all.txt has no outcomes table")
	}
	buf.Write(golden[:i+1])
	err = experiments.Run(ctx, &buf, "outcomes", o.reproParams(1), false)
	return buf.Bytes(), err
}

func reproAll(ctx context.Context, p experiments.Params) ([]byte, error) {
	var buf bytes.Buffer
	err := experiments.Run(ctx, &buf, "all", p, false)
	return buf.Bytes(), err
}

func runRepro(ctx context.Context, b *bench) error {
	if err := b.measureSetup(false); err != nil {
		return err
	}
	want, err := reproExpected(ctx, b.opts)
	if err != nil {
		return err
	}
	return b.measure(reproPassSeconds, func() error {
		got, err := reproAll(ctx, b.opts.reproParams(b.procs))
		if err != nil {
			return err
		}
		b.checkLines("repro all", got, want)
		return nil
	})
}

// reproBatches are the batched evaluations `repro all` makes per
// benchmark, in order: Table 1's policies, the two throttle policies the
// ablation adds, and the protection study's own suite. Every other
// suite-routed experiment reads cells these already simulated.
var reproBatches = [][]core.Policy{
	{core.PolicyBaseline, core.PolicySquashL1, core.PolicySquashL0},
	{core.PolicyThrottleL1, core.PolicyThrottleL0},
	{core.PolicyBaseline, core.PolicySquashL1},
}

// reproSuiteReads is how many (benchmark, policy) cells per benchmark the
// suite-routed experiments of `repro all` read from the shared suite:
// Table 1 three, the breakdown and Figures 2 and 3 one each, Figure 4
// two, the ablation five.
const reproSuiteReads = 13

// traceRepro runs `repro all` untraced, then traced — a span around each
// experiment's Build and Emit — and then re-enacts its simulations from
// public parts with a span around every layer: the batches of
// reproBatches, the register-file study's solo runs and the outcomes
// campaign. Each of the three must simulate exactly the same cycles.
func traceRepro(ctx context.Context, b *bench) error {
	b.zeroLayers()
	if err := b.measureSetup(false); err != nil {
		return err
	}
	want, err := reproExpected(ctx, b.opts)
	if err != nil {
		return err
	}

	var got []byte
	m0 := memStats()
	untraced, err := timePass(func() error {
		got, err = reproAll(ctx, b.opts.reproParams(b.procs))
		return err
	})
	if err != nil {
		return err
	}
	b.setRuntime(m0)
	b.checkLines("repro all", got, want)

	p := b.opts.reproParams(b.procs)
	var buf bytes.Buffer
	traced, err := timePass(func() error {
		root := b.tr.start("repro.all", -1, 0)
		defer b.tr.stop(root)
		for _, name := range experiments.AllOrder {
			id := b.tr.start("experiments.build."+name, root, 0)
			t, err := experiments.Build(ctx, name, p)
			b.tr.stop(id)
			if err != nil {
				return err
			}
			id = b.tr.start("experiments.render", root, 0)
			err = experiments.Emit(&buf, t, false)
			b.tr.stop(id)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.checkLines("traced repro all", buf.Bytes(), want)
	b.check(traced.cycles == untraced.cycles, "traced cycles %d, untraced %d", traced.cycles, untraced.cycles)
	b.set("core.sim_mcycles", float64(traced.cycles)/1e6)
	b.set("experiments.render_s", b.tr.total("experiments.render"))
	reads := float64(reproSuiteReads * len(p.Benches))
	b.set("core.suite_memo_hit_ratio", (reads-float64(p.Suite.Simulations()))/reads)
	b.setOverhead(untraced.wall, traced.wall)

	cycles, err := b.reenactRepro(ctx)
	if err != nil {
		return err
	}
	b.check(cycles == untraced.cycles, "re-enacted cycles %d, untraced %d", cycles, untraced.cycles)
	return nil
}

// reenactRepro replays `repro all`'s simulations layer by layer and
// returns the cycles they simulated.
func (b *bench) reenactRepro(ctx context.Context) (uint64, error) {
	p := b.opts.reproParams(b.procs)
	tr := b.tr
	root := tr.start("repro.reenact", -1, 0)
	defer tr.stop(root)

	// One lane set per worker, as each suite worker draws one arena.
	pool := make(chan *lanes, b.procs)
	for i := 0; i < b.procs; i++ {
		pool <- &lanes{}
	}
	var t tally
	for _, pols := range reproBatches {
		err := par.ForEach(ctx, len(p.Benches), b.procs, func(ctx context.Context, i int) error {
			ls := <-pool
			defer func() { pool <- ls }()
			_, err := ls.batch(ctx, tr, root, &t, p.Benches[i].Params, p.Commits, configs(pols, nil, false))
			return err
		})
		if err != nil {
			return 0, err
		}
	}
	b.setLayers(&t)

	solo, err := par.Map(ctx, len(p.Benches), b.procs, func(ctx context.Context, i int) (uint64, error) {
		id := tr.start("pipeline.solo", root, 0)
		defer tr.stop(id)
		r, err := core.RunContext(ctx, core.Config{Workload: p.Benches[i].Params, Commits: p.Commits, RegFile: true})
		if err != nil {
			return 0, err
		}
		return r.Cycles, nil
	})
	if err != nil {
		return 0, err
	}
	cycles := t.inorderCycles + t.oooCycles
	for _, c := range solo {
		cycles += c
	}

	// The outcomes campaign, as core.OutcomesCampaign composes it.
	rec := fault.GetStreamRecorder(p.Commits)
	id := tr.start("pipeline.solo", root, 0)
	res, err := core.RunContext(ctx, core.Config{Workload: p.Benches[0].Params, Commits: p.Commits, Sink: rec})
	tr.stop(id)
	if err != nil {
		return 0, err
	}
	cycles += res.Cycles
	_, cfgs := core.OutcomeConfigs(p.Strikes, p.Seed)
	camp := &fault.Campaign{
		Injector: rec.Injector(res.Cycles, res.Report.Entries, res.Report.Dead),
		Configs:  cfgs,
		Opts:     par.Options{Workers: p.Jobs},
	}
	id = tr.start("fault.campaign", root, 0)
	_, err = camp.Run(ctx)
	tr.stop(id)
	if err != nil {
		return 0, err
	}
	rec.Release()
	campaign := tr.total("fault.campaign")
	b.set("pipeline.solo_s", tr.total("pipeline.solo"))
	b.set("fault.campaign_s", campaign)
	b.set("fault.strikes_per_s", float64(p.Strikes*len(cfgs))/campaign)
	return cycles, nil
}
