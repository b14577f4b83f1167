package main

import (
	"context"
	"sync"

	"softerror/internal/ace"
	"softerror/internal/cache"
	"softerror/internal/core"
	"softerror/internal/pipeline"
	"softerror/internal/workload"
)

// lanes is the reusable state one batch leader keeps between batches — the
// public-parts counterpart of a core.Arena: the pipeline's lane slabs plus
// pooled warm hierarchies and collectors.
type lanes struct {
	pipe  pipeline.BatchArena
	mems  []*cache.Hierarchy
	colls []*ace.BatchCollector
}

// lane is one finished lane of a re-enacted batch.
type lane struct {
	st pipeline.Stats
	iq *ace.Report
}

// tally counts the work of re-enacted batches, shared by concurrent
// leaders.
type tally struct {
	mu                       sync.Mutex
	batches, lanes           int
	inorderCycles, oooCycles uint64 // lane-cycles simulated per family
}

func (t *tally) add(k int, ooo bool, cycles uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.batches++
	t.lanes += k
	if ooo {
		t.oooCycles += cycles
	} else {
		t.inorderCycles += cycles
	}
}

// batch re-enacts core.RunBatchArena for one workload under K pipeline
// configurations of one core family, from the public parts it is built
// of, with a span around each layer: the decode (workload.NewShared plus
// the body prefix every lane walks, decoded up front here so decode and
// lane time separate), the warm-hierarchy clones, collector set-up, the
// lane engine and the collectors' Finish. The results equal
// core.RunBatchArena's; the caller checks that through the outputs and
// the simulated cycle count.
func (ls *lanes) batch(ctx context.Context, tr *tracer, parent int, t *tally, w workload.Params, commits uint64, cfgs []pipeline.Config) ([]lane, error) {
	ooo := cfgs[0].OutOfOrder
	family := "inorder"
	if ooo {
		family = "ooo"
	}

	id := tr.start("workload.decode", parent, 0)
	sh, err := workload.NewShared(w)
	if err != nil {
		tr.stop(id)
		return nil, err
	}
	sh.Reserve(int(commits)+1024, int(commits)/4+256)
	sh.BodyPrefix(int(commits))
	group := ace.NewBatchGroup(sh)
	tr.stop(id)

	id = tr.start("cache.clone", parent, 0)
	mems := make([]*cache.Hierarchy, len(cfgs))
	for i := range mems {
		var dst *cache.Hierarchy
		if n := len(ls.mems); n > 0 {
			dst, ls.mems = ls.mems[n-1], ls.mems[:n-1]
		}
		mems[i] = workload.WarmedInto(dst)
	}
	tr.stop(id)

	id = tr.start("ace.collector_setup", parent, 0)
	colls := make([]*ace.BatchCollector, len(cfgs))
	sinks := make([]pipeline.BatchSink, len(cfgs))
	for i, cfg := range cfgs {
		ccfg := ace.StructureConfig(cfg, commits)
		var c *ace.BatchCollector
		if n := len(ls.colls); n > 0 {
			c, ls.colls = ls.colls[n-1], ls.colls[:n-1]
			err = c.Reset(ccfg, group)
		} else {
			c, err = ace.NewBatchCollector(ccfg, group)
		}
		if err != nil {
			tr.stop(id)
			return nil, err
		}
		colls[i], sinks[i] = c, c
	}
	tr.stop(id)

	id = tr.start("pipeline."+family+"_batch", parent, 0)
	stats, err := pipeline.RunBatchStreamArena(ctx, commits, sh, cfgs, mems, sinks, &ls.pipe)
	tr.stop(id)
	if err != nil {
		return nil, err
	}

	id = tr.start("ace.finish_"+family, parent, 0)
	out := make([]lane, len(cfgs))
	var cycles uint64
	for i, c := range colls {
		reps := c.Finish(stats[i].Cycles)
		out[i] = lane{st: stats[i], iq: reps.IQ}
		cycles += stats[i].Cycles
	}
	tr.stop(id)
	ls.colls = append(ls.colls, colls...)
	ls.mems = append(ls.mems, mems...)
	t.add(len(cfgs), ooo, cycles)
	return out, nil
}

// configs returns the pipeline configuration of every (policy, IQ size)
// cell, policy-major as a sweep grid orders them; nil iqs keeps the
// default IQ size.
func configs(pols []core.Policy, iqs []int, ooo bool) []pipeline.Config {
	var out []pipeline.Config
	for _, pol := range pols {
		cfg := pipeline.DefaultConfig()
		pol.Apply(&cfg)
		cfg.OutOfOrder = ooo
		if iqs == nil {
			out = append(out, cfg)
		}
		for _, iq := range iqs {
			cfg.IQSize = iq
			out = append(out, cfg)
		}
	}
	return out
}

// setLayers reports the re-enacted batches' layer totals.
func (b *bench) setLayers(t *tally) {
	tr := b.tr
	b.set("workload.decode_s", tr.total("workload.decode"))
	b.set("cache.clone_s", tr.total("cache.clone"))
	in, ooo := tr.total("pipeline.inorder_batch"), tr.total("pipeline.ooo_batch")
	b.set("pipeline.inorder_batch_s", in)
	b.set("pipeline.ooo_batch_s", ooo)
	if t.inorderCycles > 0 {
		b.set("pipeline.inorder_ns_per_cycle", in*1e9/float64(t.inorderCycles))
	}
	if t.oooCycles > 0 {
		b.set("pipeline.ooo_ns_per_cycle", ooo*1e9/float64(t.oooCycles))
	}
	if t.batches > 0 {
		b.set("pipeline.lanes_per_pass", float64(t.lanes)/float64(t.batches))
	}
	b.set("ace.finish_inorder_s", tr.total("ace.finish_inorder"))
	b.set("ace.finish_ooo_s", tr.total("ace.finish_ooo"))
}
