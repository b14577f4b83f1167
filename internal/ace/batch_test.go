package ace

import (
	"context"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"softerror/internal/cache"
	"softerror/internal/isa"
	"softerror/internal/pipeline"
	"softerror/internal/workload"
)

// sliceSource is a canned BatchSource over pre-built streams.
type sliceSource struct{ body, wrong []isa.Inst }

func (s *sliceSource) Body(n int) *isa.Inst { return &s.body[n] }
func (s *sliceSource) Wrong(j int) isa.Inst { return s.wrong[j] }
func (s *sliceSource) WrongSite(n, j int) (uint64, uint8) {
	return s.body[n].PC + 4*uint64(j), 0
}

// BodyPrefix aliases the body stream, as workload.Shared does, so Finish
// reads the shared commit log without copying it.
func (s *sliceSource) BodyPrefix(m int) []isa.Inst { return s.body[:m] }

// pinLog builds an n-instruction commit log that reaches every deadness
// category at any n ≥ 100: a repeating mix of register defs and reads,
// loads and stores over four addresses, calls and returns, and no-ops.
// Its address set is fixed, so the kernel's pending-store map stays one
// size whatever n is.
func pinLog(n int) []isa.Inst {
	b := &logBuilder{}
	for i := 0; len(b.log) < n; i++ {
		r := isa.IntReg(2 + i%6)
		addr := 8 * uint64(i%4)
		b.alu(r, isa.IntReg(2+(i+1)%6), isa.RegNone)
		b.alu(r, r, isa.RegNone)
		b.store(r, addr)
		b.load(isa.IntReg(2+(i+3)%6), addr+8)
		b.nop()
		if i%5 == 0 {
			b.call()
			b.alu(isa.IntReg(20), isa.IntReg(2), isa.RegNone)
			b.ret()
		}
	}
	return b.log[:n]
}

// runLane drives one pipeline lane over the default workload's shared
// stream into a BatchCollector built from ccfg, on a cold default
// hierarchy, and returns the lane's stats and finished collector.
func runLane(t *testing.T, cfg pipeline.Config, ccfg CollectorConfig, commits uint64) (pipeline.Stats, *BatchCollector) {
	t.Helper()
	sh, err := workload.NewShared(workload.Default())
	if err != nil {
		t.Fatal(err)
	}
	coll, err := NewBatchCollector(ccfg, NewBatchGroup(sh))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := pipeline.RunBatchStreamArena(context.Background(), commits, sh,
		[]pipeline.Config{cfg}, []*cache.Hierarchy{cache.MustNewDefault()},
		[]pipeline.BatchSink{coll}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return stats[0], coll
}

// TestCollectorMatchesBatchAnalysis pins the core guarantee of the
// streaming analysis: for identical runs, a one-lane BatchCollector's
// reports are *exactly* equal — every bit-cycle tally, field decomposition
// and deadness population — to materialising the trace on the solo engine
// and running the trace analyses (the independent oracle).
func TestCollectorMatchesBatchAnalysis(t *testing.T) {
	cases := []struct {
		name    string
		mut     func(*pipeline.Config)
		commits uint64
		holes   bool // the lane must stop with commit holes
	}{
		{"default", func(c *pipeline.Config) {}, 30000, false},
		{"squash-l1", func(c *pipeline.Config) { c.SquashTrigger = pipeline.TriggerL1Miss }, 30000, false},
		{"squash-l0-throttle", func(c *pipeline.Config) {
			c.SquashTrigger = pipeline.TriggerL0Miss
			c.ThrottleTrigger = pipeline.TriggerL1Miss
		}, 30000, false},
		// Out-of-order lanes usually stop mid dataflow window with younger
		// bodies committed ahead of older ones; these two commit targets are
		// picked to cover both Finish branches.
		{"ooo-squash-l1", func(c *pipeline.Config) {
			c.OutOfOrder = true
			c.SquashTrigger = pipeline.TriggerL1Miss
		}, 30006, false},
		{"ooo-commit-holes", func(c *pipeline.Config) { c.OutOfOrder = true }, 30000, true},
		{"tiny-queues", func(c *pipeline.Config) {
			c.IQSize = 8
			c.StoreBufferSize = 2
			c.SquashTrigger = pipeline.TriggerL1Miss
		}, 30000, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := pipeline.DefaultConfig()
			tc.mut(&cfg)

			// Oracle: materialise the trace, analyse each structure.
			p := pipeline.MustNew(cfg, workload.MustNew(workload.Default()), cache.MustNewDefault())
			tr := p.Run(tc.commits, true)
			dead := AnalyzeDeadness(tr.CommitLog)
			want := &Reports{
				IQ:          AnalyzeWith(tr, dead),
				FrontEnd:    AnalyzeFrontEnd(tr, dead),
				StoreBuffer: AnalyzeStoreBuffer(tr, dead),
				RegFile:     AnalyzeRegFile(tr, dead),
			}
			if cfg.OutOfOrder {
				want.ROB = AnalyzeROB(tr, dead)
				want.LSQ = AnalyzeLSQ(tr, dead)
			}

			// One lane: same config and seeds, no trace materialised.
			ccfg := StructureConfig(cfg, tc.commits)
			ccfg.FrontEnd, ccfg.StoreBuffer, ccfg.RegFile = true, true, true
			st, coll := runLane(t, cfg, ccfg, tc.commits)
			if holes := coll.commits != coll.n; holes != tc.holes {
				t.Fatalf("lane stopped with commit holes = %v, want %v", holes, tc.holes)
			}
			got := coll.Finish(st.Cycles)

			if st.Cycles != tr.Cycles || st.Commits != tr.Commits {
				t.Fatalf("stats diverge: cycles %d vs %d, commits %d vs %d",
					st.Cycles, tr.Cycles, st.Commits, tr.Commits)
			}
			if !reflect.DeepEqual(got.IQ, want.IQ) {
				t.Errorf("IQ report differs:\n got %+v\nwant %+v", got.IQ, want.IQ)
			}
			if !reflect.DeepEqual(got.FrontEnd, want.FrontEnd) {
				t.Errorf("front-end report differs:\n got %+v\nwant %+v", got.FrontEnd, want.FrontEnd)
			}
			if !reflect.DeepEqual(got.StoreBuffer, want.StoreBuffer) {
				t.Errorf("store-buffer report differs:\n got %+v\nwant %+v", got.StoreBuffer, want.StoreBuffer)
			}
			if !reflect.DeepEqual(got.RegFile, want.RegFile) {
				t.Errorf("regfile report differs:\n got %+v\nwant %+v", got.RegFile, want.RegFile)
			}
			if !reflect.DeepEqual(got.ROB, want.ROB) {
				t.Errorf("ROB report differs:\n got %+v\nwant %+v", got.ROB, want.ROB)
			}
			if !reflect.DeepEqual(got.LSQ, want.LSQ) {
				t.Errorf("LSQ report differs:\n got %+v\nwant %+v", got.LSQ, want.LSQ)
			}
		})
	}
}

// TestCollectorDisabledAnalysesNil pins that the opt-in reports stay nil
// (and cost nothing) when not requested.
func TestCollectorDisabledAnalysesNil(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	st, coll := runLane(t, cfg, StructureConfig(cfg, 5000), 5000)
	got := coll.Finish(st.Cycles)
	if got.FrontEnd != nil || got.StoreBuffer != nil || got.RegFile != nil {
		t.Fatal("disabled analyses should be nil")
	}
	if got.IQ == nil || got.IQ.TotalBC() == 0 {
		t.Fatal("IQ report missing")
	}
	if len(coll.fePending.narrow) != 0 || len(coll.sbPending.narrow) != 0 || len(coll.issues) != 0 {
		t.Fatal("disabled analyses should retain no per-event state")
	}
}

// TestWideRecordsMatch64BitFold drives a collector and a trace recorder
// with the same synthetic out-of-order events, some of whose cycle counts
// exceed 16 bits (the per-body records) or 32 bits (the pending charges) —
// IQ waits, IQ lingers, ROB occupancies (two summed from two reads past
// the limit), and front-end, store-buffer and LSQ charges — and requires
// the collector's reports to equal the trace analyses', which fold every
// charge in 64 bits. It also pins the record sizes the narrow fields buy.
func TestWideRecordsMatch64BitFold(t *testing.T) {
	if got := unsafe.Sizeof(commitRec{}); got != 4 {
		t.Errorf("commitRec is %d bytes, want 4", got)
	}
	if got := unsafe.Sizeof(charge32{}); got != 8 {
		t.Errorf("charge32 is %d bytes, want 8", got)
	}
	var c BatchCollector
	if got := unsafe.Sizeof(c.robOcc[0]); got != 2 {
		t.Errorf("per-body ROB occupancy is %d bytes, want 2", got)
	}

	const commits = 128
	const big = 1<<32 + 5          // past a 32-bit charge on its own
	const half = 3 << 30           // two of these overflow one
	const past16 = 1<<16 + 3       // past a 16-bit record on its own
	const half16 = 40000           // two of these overflow one
	const cycles = uint64(1) << 40 // the lane's length
	src := &sliceSource{body: pinLog(commits + 16)}
	pcfg := pipeline.DefaultConfig()
	pcfg.OutOfOrder = true
	ccfg := StructureConfig(pcfg, commits)
	ccfg.FrontEnd, ccfg.StoreBuffer, ccfg.RegFile = true, true, true
	coll, err := NewBatchCollector(ccfg, NewBatchGroup(src))
	if err != nil {
		t.Fatal(err)
	}
	rec := pipeline.NewTraceRecorder(pcfg, commits)
	lifted := pipeline.LiftSink(src, rec)
	sinks := []interface {
		pipeline.BatchSink
		pipeline.BatchOOOSink
	}{coll, lifted.(interface {
		pipeline.BatchSink
		pipeline.BatchOOOSink
	})}

	for n := 0; n < commits; n++ {
		ref, seq := pipeline.BatchRef(n), uint64(n)
		enq := uint64(n) << 34
		wait, linger, rob, fe, sb, lsq := uint64(1), uint64(2), uint64(5), uint64(1), uint64(4), uint64(5)
		switch n {
		case 3:
			wait = big
		case 4:
			wait = past16
		case 5:
			linger = big
		case 6:
			linger = past16
		case 9:
			rob = big
		case 10:
			rob = past16
		case 12:
			fe, sb, lsq = big, big, big
		}
		for _, s := range sinks {
			s.BatchCommit(ref, seq, enq, enq+wait)
			s.BatchResidency(ref, seq, enq, enq+wait, enq+wait+linger, true, false)
			s.BatchFrontEnd(ref, seq, enq, enq+fe, true)
			s.BatchStoreBuffer(ref, seq, enq, enq+sb)
			s.BatchROB(ref, seq, enq, enq+rob, true)
			switch n { // more reads of the same body, summing past a record
			case 7:
				s.BatchROB(ref, seq, enq, enq+half, true)
				s.BatchROB(ref, seq, enq, enq+half, true)
			case 11:
				s.BatchROB(ref, seq, enq, enq+half16, true)
				s.BatchROB(ref, seq, enq, enq+half16, true)
			}
			s.BatchLSQ(ref, seq, enq, enq+lsq, true)
		}
	}
	if len(coll.wide) != 8 || len(coll.fePending.wide) != 1 ||
		len(coll.sbPending.wide) != 1 || len(coll.lsqPending.wide) != 1 {
		t.Fatalf("wide entries: %d bodies, %d/%d/%d charges; want 8, 1/1/1",
			len(coll.wide), len(coll.fePending.wide), len(coll.sbPending.wide), len(coll.lsqPending.wide))
	}
	got := coll.Finish(cycles)

	tr := rec.Trace(pipeline.Stats{Cycles: cycles, Commits: commits})
	dead := AnalyzeDeadness(tr.CommitLog)
	want := &Reports{
		IQ:          AnalyzeWith(tr, dead),
		FrontEnd:    AnalyzeFrontEnd(tr, dead),
		StoreBuffer: AnalyzeStoreBuffer(tr, dead),
		RegFile:     AnalyzeRegFile(tr, dead),
		ROB:         AnalyzeROB(tr, dead),
		LSQ:         AnalyzeLSQ(tr, dead),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reports differ from the 64-bit fold:\n got %+v\nwant %+v", got, want)
	}
}

// TestAdd16Carries pins add16: a sum that fits stays in the record, one
// that does not leaves the record zero and returns the whole sum, wrapped
// at 2⁶⁴ as a 64-bit record would be.
func TestAdd16Carries(t *testing.T) {
	cases := []struct {
		r         uint16
		v         uint64
		wantR     uint16
		wantCarry uint64
	}{
		{0, 7, 7, 0},
		{5, math.MaxUint16 - 5, math.MaxUint16, 0},
		{5, math.MaxUint16 - 4, 0, 1 << 16},
		{40000, 40000, 0, 80000},
		{0, 1 << 32, 0, 1 << 32},
		{1, math.MaxUint64, 0, 0},
		{2, math.MaxUint64, 0, 1},
	}
	for _, tc := range cases {
		r := tc.r
		if carry := add16(&r, tc.v); r != tc.wantR || carry != tc.wantCarry {
			t.Errorf("add16(%d, %d) = record %d carry %d, want %d %d",
				tc.r, tc.v, r, carry, tc.wantR, tc.wantCarry)
		}
	}
}
