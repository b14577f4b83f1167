//go:build !race

// Race instrumentation allocates on its own; the allocation budgets here
// only hold in plain builds.

package ace

import (
	"testing"

	"softerror/internal/isa"
	"softerror/internal/pipeline"
)

// sliceSource is a canned BatchSource over pre-built streams.
type sliceSource struct{ body, wrong []isa.Inst }

func (s *sliceSource) Body(n int) *isa.Inst  { return &s.body[n] }
func (s *sliceSource) Wrong(j int) *isa.Inst { return &s.wrong[j] }
func (s *sliceSource) WrongSite(n, j int) (uint64, uint8) {
	return s.body[n].PC + 4*uint64(j), 0
}

// TestBatchCollectorEventPathZeroAlloc pins the arena property on the
// collector: once a BatchCollector has been through one Reset/feed cycle,
// further cycles — Reset included — allocate nothing. Every event record
// lands in storage retained across Reset, so a sweep reusing pooled
// collectors pays the collector's allocations once per pool slot, not once
// per grid cell.
func TestBatchCollectorEventPathZeroAlloc(t *testing.T) {
	const commits = 2000
	src := &sliceSource{body: make([]isa.Inst, commits+16)}
	for i := range src.body {
		src.body[i] = isa.Inst{Seq: uint64(i), Dest: isa.Reg(1 + i%8), Class: isa.ClassALU}
	}
	group := NewBatchGroup(src)
	cfg := StructureConfig(pipeline.DefaultConfig(), commits)
	cfg.FrontEnd = true
	cfg.StoreBuffer = true

	coll, err := NewBatchCollector(cfg, group)
	if err != nil {
		t.Fatal(err)
	}
	feed := func() {
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
			coll.BatchStoreBuffer(ref, seq, enq, enq+4)
		}
	}
	feed() // warm the record arrays and pending lists to their high-water marks

	if avg := testing.AllocsPerRun(10, feed); avg != 0 {
		t.Fatalf("warm collector event cycle allocates %.1f times per run, want 0", avg)
	}
}
