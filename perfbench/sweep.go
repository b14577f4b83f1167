package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"softerror/internal/core"
	"softerror/internal/serate"
	"softerror/internal/spec"
	"softerror/internal/sweep"
)

// sweep-ooo: the paper's three exposure policies over the 26-benchmark
// roster on the out-of-order core family — the only workload on the OoO
// lane engine and the OoO branch of BatchCollector.Finish. Its input is
// fixed; the seed does not change it.

var sweepPolicies = []core.Policy{core.PolicyBaseline, core.PolicySquashL1, core.PolicySquashL0}

const (
	sweepIQ = 64
	// sweepPassSeconds is one grid on the 2-vCPU reference host.
	sweepPassSeconds = 6.2
)

func (o options) sweepCommits() uint64 {
	if o.commits != 0 {
		return o.commits
	}
	return core.DefaultCommits
}

// sweepGrid is the workload's grid, with a fresh arena pool as a fresh
// cmd/sweep process would have.
func sweepGrid(o options, workers int) *sweep.Grid {
	return &sweep.Grid{
		Benches:    spec.All(),
		Policies:   sweepPolicies,
		IQSizes:    []int{sweepIQ},
		OutOfOrder: []bool{true},
		Commits:    o.sweepCommits(),
		Workers:    workers,
		Arenas:     core.NewArenaPool(),
	}
}

// sweepGolden is the expected CSV and simulated cycle count: the stored
// goldens at the workload's size, otherwise an untimed single-worker run.
func sweepGolden(ctx context.Context, o options) ([]byte, uint64, error) {
	if o.commits == 0 {
		dir := filepath.Join(o.root, "perfbench", "golden")
		csv, err := os.ReadFile(filepath.Join(dir, "sweep_ooo.csv"))
		if err != nil {
			return nil, 0, err
		}
		raw, err := os.ReadFile(filepath.Join(dir, "sweep_ooo.cycles"))
		if err != nil {
			return nil, 0, err
		}
		cycles, err := strconv.ParseUint(strings.TrimSpace(string(raw)), 10, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("sweep_ooo.cycles: %w", err)
		}
		return csv, cycles, nil
	}
	var csv []byte
	p, err := timePass(func() error {
		var err error
		csv, err = runGrid(ctx, sweepGrid(o, 1))
		return err
	})
	return csv, p.cycles, err
}

func runGrid(ctx context.Context, g *sweep.Grid) ([]byte, error) {
	rows, err := g.RunContext(ctx, nil, nil)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := sweep.WriteCSV(&buf, rows); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func runSweep(ctx context.Context, b *bench) error {
	if err := b.measureSetup(false); err != nil {
		return err
	}
	want, wantCycles, err := sweepGolden(ctx, b.opts)
	if err != nil {
		return err
	}
	return b.measure(sweepPassSeconds, func() error {
		c0 := core.CyclesSimulated()
		got, err := runGrid(ctx, sweepGrid(b.opts, b.procs))
		if err != nil {
			return err
		}
		b.checkLines("sweep-ooo csv", got, want)
		cycles := core.CyclesSimulated() - c0
		b.check(cycles == wantCycles, "sweep-ooo cycles %d, want %d", cycles, wantCycles)
		return nil
	})
}

// traceSweep runs the grid once through sweep.Grid.RunContext (untraced),
// then once as a re-enactment of its batches — one batch of the three
// policies per benchmark, leader by leader as the grid runs them — with
// spans around each layer. Both outputs and cycle counts must match the
// golden.
func traceSweep(ctx context.Context, b *bench) error {
	b.zeroLayers()
	if err := b.measureSetup(false); err != nil {
		return err
	}
	want, wantCycles, err := sweepGolden(ctx, b.opts)
	if err != nil {
		return err
	}
	var got []byte
	m0, cpu0 := memStats(), cpuSeconds()
	p, err := timePass(func() error {
		var err error
		got, err = runGrid(ctx, sweepGrid(b.opts, b.procs))
		return err
	})
	if err != nil {
		return err
	}
	b.checkLines("sweep-ooo csv", got, want)
	b.check(p.cycles == wantCycles, "sweep-ooo cycles %d, want %d", p.cycles, wantCycles)
	b.set("sweep.grid_s", p.wall)
	b.set("sweep.cores_busy", (cpuSeconds()-cpu0)/p.wall)
	b.setRuntime(m0)

	var t tally
	var rows []sweep.Row
	traced, err := timeIt(func() error {
		root := b.tr.start("sweep.reenact", -1, 0)
		defer b.tr.stop(root)
		var ls lanes
		commits := b.opts.sweepCommits()
		for _, bm := range spec.All() {
			cfgs := configs(sweepPolicies, []int{sweepIQ}, true)
			out, err := ls.batch(ctx, b.tr, root, &t, bm.Params, commits, cfgs)
			if err != nil {
				return fmt.Errorf("%s: %w", bm.Name, err)
			}
			for i, l := range out {
				ipc, sdc := l.st.IPC(), l.iq.SDCAVF()
				rows = append(rows, sweep.Row{
					Bench: bm.Name, FP: bm.FP, Policy: sweepPolicies[i],
					IQSize: sweepIQ, OutOfOrder: true,
					IPC: ipc, SDCAVF: sdc, DUEAVF: l.iq.DUEAVF(),
					FalseDUEAVF: l.iq.FalseDUEAVF(),
					MeritSDC:    serate.Merit(ipc, sdc),
					Squashes:    l.st.Squashes,
				})
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := sweep.WriteCSV(&buf, rows); err != nil {
		return err
	}
	b.checkLines("re-enacted sweep-ooo csv", buf.Bytes(), want)
	cycles := t.inorderCycles + t.oooCycles
	b.check(cycles == p.cycles, "re-enacted cycles %d, grid simulated %d", cycles, p.cycles)
	b.set("core.sim_mcycles", float64(cycles)/1e6)
	b.setLayers(&t)
	b.setOverhead(p.wall, traced)
	return nil
}
