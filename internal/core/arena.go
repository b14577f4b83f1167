package core

import (
	"sync"

	"softerror/internal/ace"
	"softerror/internal/cache"
	"softerror/internal/pipeline"
	"softerror/internal/workload"
)

// This file is the arena layer of the batched evaluation path. Profiling
// the batched sweep showed the steady state dominated by four rebuild
// costs per wave: warm hierarchy clones (~40% of bytes), collector record
// arrays (~26%), the workload's decode memos (~20%) and the deadness
// analyses (~4%). An Arena keeps all four alive between waves — pooled
// warm hierarchies re-stamped via cache.CloneInto, collectors re-armed via
// ace.BatchCollector.Reset, the last decoded workload.Shared stream (with
// its ace.BatchGroup deadness memos and kernel scratch) — plus the
// pipeline's lane/slab arena. Reuse is invisible in the results: every
// reused object is either re-stamped bit-identically, fully reset, or a
// deterministic memo whose content depends only on the workload
// parameters. The arena-reuse seraudit check pins fresh-arena ≡
// reused-arena byte identity; batched-independent and the -j/fleet
// identities pin the rest.
//
// An arena keeps one decoded stream, not a most-recently-used list. What
// one entry buys is memory: with one deadness scratch per batch group it
// lets two out-of-order batches run side by side in the memory one took.
// sweep-ooo with both workers busy peaks at 138–150 MB RSS on 2 vCPU, as it
// did at 146–151 MB running one batch at a time over a list of four. What
// it costs was measured on the same host: serve-mixed wall time rose 3.6%
// over 12 alternating pairs, and a build that kept the list of four won
// back 1–2 points of that, so a daemon's mixed traffic does revisit
// streams. A fleet lease that splits a benchmark also decodes it once per
// lease. StreamsDecoded and StreamHits count, process-wide, the runs that
// missed and found their arena's kept stream. A driver that runs one
// workload's batches back to back on one arena decodes it once:
// Suite.PrewarmAll does so for the whole evaluation.
//
// Replacing the kept stream recycles its memos: the new workload.Shared
// takes over the old one's body and wrong-path arrays (Shared.Recycle), so
// a warm arena decodes another workload without allocating and zeroing the
// ~6 MB those memos take at 100k commits (TestArenaRecyclesStreamMemos).
// A memo pointer therefore lives until its stream is recycled, and nothing
// may hold one past its batch (RunBatchArena states who holds what).
// Private streams of PC-indexed workloads are per lane and not recycled.
// Recycled arrays keep their capacity, so an arena holds memos sized for
// the largest run it has served, where it used to hold its last run's.
// Together with the generator writing into its memo slots and the π replay
// shedding its maps, median peak RSS on 2 vCPU fell from 267 to 227 MB
// for repro-all (10 alternating pairs) and from 148 to 134 MB for
// sweep-ooo (6 pairs); serve-mixed stayed at 169 MB.

const (
	// arenaMemCap and arenaCollCap bound the pooled warm hierarchies and
	// collectors; both match the widest batch (sweep groups cap at 8
	// lanes, benchmarks' spec columns at 16).
	arenaMemCap  = 16
	arenaCollCap = 16
	// arenaPoolCap bounds an ArenaPool's free list; checked-out arenas are
	// unbounded (one per concurrent batch leader), the cap only limits how
	// many idle arenas a pool keeps warm.
	arenaPoolCap = 32
)

// streamEntry is one decoded workload kept alive across batch waves: the
// shared stream memo plus its analysis group, whose deadness memos are
// thereby shared by consecutive batches over this workload (a sweep bench
// too wide for one batch runs as several).
type streamEntry struct {
	params workload.Params
	sh     *workload.Shared
	group  *ace.BatchGroup
}

// Arena owns one worker goroutine's reusable evaluation state. The zero
// value is ready to use. An Arena is not safe for concurrent use: check
// one out per goroutine (ArenaPool) or own one per worker.
type Arena struct {
	pipe  pipeline.BatchArena
	last  *streamEntry // the most recently decoded workload
	mems  []*cache.Hierarchy
	colls []*ace.BatchCollector
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// stream returns the decoded shared stream and analysis group for w,
// reserved for a run of about commits body instructions. It reuses the
// kept entry when this arena's last stream was w's and replaces it
// otherwise, handing the old stream's memo arrays to the new one
// (workload.Shared.Recycle); a workload that yields no shared stream
// (PC-indexed or invalid) leaves the kept entry in place. The memo content
// is deterministic in w (generation is seeded by the workload parameters),
// so a reused entry is byte-for-byte the stream a fresh decode would
// produce — just already materialised.
func (a *Arena) stream(w workload.Params, commits uint64) (*workload.Shared, *ace.BatchGroup, error) {
	e := a.last
	if e != nil && e.params == w {
		streamHits.Add(1)
	} else {
		sh, err := workload.NewShared(w)
		if err != nil {
			return nil, nil, err
		}
		streamDecodes.Add(1)
		if e != nil {
			sh.Recycle(e.sh)
		}
		e = &streamEntry{params: w, sh: sh, group: ace.NewBatchGroup(sh)}
		a.last = e
	}
	// Pre-size the memos: every lane walks ~commits body instructions
	// (plus a small overshoot), and wrong-path draws run a fraction of
	// that. One up-front reservation replaces the log2(commits)
	// append-doublings the memos would otherwise pay; on a reused or
	// recycled stream the capacity is already there and this is a no-op.
	e.sh.Reserve(int(commits)+1024, int(commits)/4+256)
	return e.sh, e.group, nil
}

// warmHierarchy returns a warmed default hierarchy, re-stamping a pooled
// one when available (bit-identical to a fresh workload.WarmedDefault).
func (a *Arena) warmHierarchy() *cache.Hierarchy {
	var dst *cache.Hierarchy
	if n := len(a.mems); n > 0 {
		dst, a.mems = a.mems[n-1], a.mems[:n-1]
	}
	return workload.WarmedInto(dst)
}

// putHierarchy returns a finished lane's hierarchy to the pool.
func (a *Arena) putHierarchy(h *cache.Hierarchy) {
	if h != nil && len(a.mems) < arenaMemCap {
		a.mems = append(a.mems, h)
	}
}

// collector returns a collector armed for cfg over group, re-using a
// pooled one's storage when available.
func (a *Arena) collector(cfg ace.CollectorConfig, group *ace.BatchGroup) (*ace.BatchCollector, error) {
	if n := len(a.colls); n > 0 {
		c := a.colls[n-1]
		a.colls = a.colls[:n-1]
		if err := c.Reset(cfg, group); err != nil {
			return nil, err
		}
		return c, nil
	}
	return ace.NewBatchCollector(cfg, group)
}

// putCollector returns a finished collector to the pool. Must only be
// called after Finish: the reports Finish returned are detached copies,
// so the next Reset cannot reach previously returned results.
func (a *Arena) putCollector(c *ace.BatchCollector) {
	if c != nil && len(a.colls) < arenaCollCap {
		a.colls = append(a.colls, c)
	}
}

// ArenaPool hands arenas to worker goroutines: Get returns a warm arena
// (or a fresh one when none is idle), Put parks it for the next worker.
// Sharing one pool across a grid — or across a daemon's jobs and fleet
// leases — is what carries decoded streams and warm buffers from one
// batch wave to the next. The zero value is ready to use; a nil pool is
// the process-wide default pool behind RunBatchContext.
type ArenaPool struct {
	mu   sync.Mutex
	free []*Arena
}

// NewArenaPool returns an empty pool.
func NewArenaPool() *ArenaPool { return &ArenaPool{} }

// Get checks an arena out of the pool, allocating one when empty.
func (p *ArenaPool) Get() *Arena {
	if p == nil {
		p = defaultArenas
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		a := p.free[n-1]
		p.free = p.free[:n-1]
		return a
	}
	return NewArena()
}

// Put returns an arena to the pool. The caller must be done with it: an
// arena serves one goroutine at a time.
func (p *ArenaPool) Put(a *Arena) {
	if a == nil {
		return
	}
	if p == nil {
		p = defaultArenas
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) < arenaPoolCap {
		p.free = append(p.free, a)
	}
}

// defaultArenas backs RunBatchContext, so every batched caller — suites,
// benchmarks, ad-hoc drivers — reuses evaluation state across calls even
// without plumbing a pool of its own.
var defaultArenas = NewArenaPool()
