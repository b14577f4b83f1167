//go:build !race

// Race instrumentation allocates on its own; the allocation budgets here
// only hold in plain builds.

package ace

import (
	"runtime"
	"testing"

	"softerror/internal/isa"
	"softerror/internal/pipeline"
)

// TestBatchCollectorEventPathZeroAlloc pins the arena property on the
// collector: once a BatchCollector has been through one Reset/feed cycle,
// further cycles — Reset included — allocate nothing. Every event record
// lands in storage retained across Reset, so a sweep reusing pooled
// collectors pays the collector's allocations once per pool slot, not once
// per grid cell. The out-of-order leg also pins where reorder-buffer reads
// live: summed into per-body storage, so a warm collector stays at zero
// allocations when each body is read from the ROB more often than during
// warm-up.
func TestBatchCollectorEventPathZeroAlloc(t *testing.T) {
	const commits = 2000
	for _, ooo := range []bool{false, true} {
		name := "inorder"
		if ooo {
			name = "ooo"
		}
		t.Run(name, func(t *testing.T) {
			src := &sliceSource{body: make([]isa.Inst, commits+16)}
			for i := range src.body {
				src.body[i] = isa.Inst{Seq: uint64(i), Dest: isa.Reg(1 + i%8), Class: isa.ClassALU}
			}
			group := NewBatchGroup(src)
			pcfg := pipeline.DefaultConfig()
			pcfg.OutOfOrder = ooo
			cfg := StructureConfig(pcfg, commits)
			cfg.FrontEnd = true
			cfg.StoreBuffer = !ooo

			coll, err := NewBatchCollector(cfg, group)
			if err != nil {
				t.Fatal(err)
			}
			feed := func(robReads int) {
				if err := coll.Reset(cfg, group); err != nil {
					t.Fatal(err)
				}
				for n := 0; n < commits; n++ {
					ref := pipeline.BatchRef(n) // correct-path ref for body cursor n
					seq := uint64(n)
					enq := 2 * seq
					coll.BatchCommit(ref, seq, enq, enq+1)
					coll.BatchResidency(ref, seq, enq, enq+1, enq+3, true, false)
					coll.BatchFrontEnd(ref, seq, enq, enq+1, true)
					if ooo {
						for r := 0; r < robReads; r++ {
							coll.BatchROB(ref, seq, enq, enq+5, true)
						}
					} else {
						coll.BatchStoreBuffer(ref, seq, enq, enq+4)
					}
				}
			}
			feed(1) // warm the record arrays and pending lists to their high-water marks

			if avg := testing.AllocsPerRun(10, func() { feed(1) }); avg != 0 {
				t.Fatalf("warm collector event cycle allocates %.1f times per run, want 0", avg)
			}
			if !ooo {
				return
			}
			// AllocsPerRun warms up first; count the first run at four ROB
			// reads per body directly.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			feed(4)
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; n != 0 {
				t.Fatalf("four ROB reads per body allocate %d times on a collector warmed at one, want 0", n)
			}
		})
	}
}

// TestAnalyzeDeadnessAllocsIndependentOfLength pins the kernel's array
// form: a log of any length costs the same fixed set of allocations (the
// result's slices; the scratch arrays come from a pool), never one per
// definition.
func TestAnalyzeDeadnessAllocsIndependentOfLength(t *testing.T) {
	short, long := pinLog(2000), pinLog(20000)
	small := testing.AllocsPerRun(5, func() { AnalyzeDeadness(short) })
	large := testing.AllocsPerRun(5, func() { AnalyzeDeadness(long) })
	if small != large {
		t.Fatalf("AnalyzeDeadness allocates %.0f times on 2k instructions but %.0f on 20k; want the same", small, large)
	}
}

// TestHoledFinishAllocsIndependentOfCommits pins the in-place holed
// Finish: a warm collector settling a lane that stopped with a commit hole
// allocates a fixed number of times however many bodies committed, since
// the analysis runs over the shared body prefix in the collector's kept
// scratch.
func TestHoledFinishAllocsIndependentOfCommits(t *testing.T) {
	allocs := func(commits int) float64 {
		src := &sliceSource{body: pinLog(commits + 16)}
		group := NewBatchGroup(src)
		pcfg := pipeline.DefaultConfig()
		pcfg.OutOfOrder = true
		cfg := StructureConfig(pcfg, uint64(commits))
		cfg.FrontEnd, cfg.StoreBuffer, cfg.RegFile = true, true, true
		coll, err := NewBatchCollector(cfg, group)
		if err != nil {
			t.Fatal(err)
		}
		hole := commits - 10 // still in flight when the lane stops
		run := func() {
			if err := coll.Reset(cfg, group); err != nil {
				t.Fatal(err)
			}
			for n := 0; n < commits; n++ {
				ref := pipeline.BatchRef(n)
				seq := uint64(n)
				enq := 2 * seq
				if n != hole {
					coll.BatchCommit(ref, seq, enq, enq+1)
				}
				coll.BatchResidency(ref, seq, enq, enq+1, enq+3, n != hole, false)
				coll.BatchFrontEnd(ref, seq, enq, enq+1, true)
				coll.BatchROB(ref, seq, enq, enq+5, n != hole)
				coll.BatchLSQ(ref, seq, enq, enq+5, n != hole)
			}
			if coll.commits == coll.n {
				t.Fatal("lane has no commit hole")
			}
			coll.Finish(uint64(2*commits + 8))
		}
		run() // warm the scratch and pending lists
		return testing.AllocsPerRun(5, run)
	}
	if small, large := allocs(2000), allocs(20000); small != large {
		t.Fatalf("holed Finish allocates %.0f times at 2k commits but %.0f at 20k; want the same", small, large)
	}
}

// TestDenseFinishBytesIndependentOfCommits pins what a hole-free lane's
// Finish costs once the group has memoised its classification: a header
// copy of the memo plus the reports, the same bytes at any commit count.
// Nothing in the settle path is sized by the lane's commits.
func TestDenseFinishBytesIndependentOfCommits(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	bytes := func(commits int) uint64 {
		src := &sliceSource{body: pinLog(commits + 16)}
		group := NewBatchGroup(src)
		cfg := StructureConfig(pipeline.DefaultConfig(), uint64(commits))
		cfg.FrontEnd, cfg.StoreBuffer = true, true
		coll, err := NewBatchCollector(cfg, group)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if err := coll.Reset(cfg, group); err != nil {
				t.Fatal(err)
			}
			for n := 0; n < commits; n++ {
				ref := pipeline.BatchRef(n)
				seq := uint64(n)
				enq := 2 * seq
				coll.BatchCommit(ref, seq, enq, enq+1)
				coll.BatchResidency(ref, seq, enq, enq+1, enq+3, true, false)
				coll.BatchFrontEnd(ref, seq, enq, enq+1, true)
				coll.BatchStoreBuffer(ref, seq, enq, enq+4)
			}
			if coll.commits != coll.n {
				t.Fatal("lane has a commit hole")
			}
			coll.Finish(uint64(2*commits + 8))
		}
		run() // fill the group memo and warm the collector
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	if small, large := bytes(2000), bytes(20000); small != large {
		t.Fatalf("dense Finish allocates %d bytes at 2k commits but %d at 20k; want the same", small, large)
	}
}

// TestBatchGroupResetKeepsScratch pins the group's re-arm: a group reset
// onto a second stream analyses it in the kernel scratch it already
// holds, so switching streams allocates only the new Deadness, exactly as
// a warm scratch's analysis does, never the scratch arrays again.
func TestBatchGroupResetKeepsScratch(t *testing.T) {
	const n = 20000
	srcs := [2]*sliceSource{{body: pinLog(n)}, {body: pinLog(n + 7)[7:]}}
	g := NewBatchGroup(srcs[0])
	var s deadScratch
	for _, src := range srcs { // warm both streams' high-water marks
		g.Reset(src)
		g.deadness(n)
		s.analyze(src.body[:n], nil)
	}
	i := 0
	rearm := testing.AllocsPerRun(10, func() {
		i++
		g.Reset(srcs[i%2])
		g.deadness(n)
	})
	warm := testing.AllocsPerRun(10, func() {
		i++
		s.analyze(srcs[i%2].body[:n], nil)
	})
	if rearm != warm {
		t.Fatalf("a re-armed group allocates %.0f times per stream switch, a warm kernel scratch %.0f; want the same", rearm, warm)
	}
}
