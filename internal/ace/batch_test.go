package ace

import (
	"context"
	"reflect"
	"testing"

	"softerror/internal/cache"
	"softerror/internal/pipeline"
	"softerror/internal/workload"
)

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
	if len(coll.fePending) != 0 || len(coll.sbPending) != 0 || len(coll.issues) != 0 {
		t.Fatal("disabled analyses should retain no per-event state")
	}
}
