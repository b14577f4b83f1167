package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"softerror/internal/pipeline"
	"softerror/internal/spec"
	"softerror/internal/workload"
)

// TestRunBatchMatchesIndependentRuns pins the tentpole identity end to
// end: a batched evaluation's Results — IPC, stats, IQ/front-end/store-
// buffer reports, deadness — equal K independent solo-engine runs analysed
// from their recorded traces exactly.
func TestRunBatchMatchesIndependentRuns(t *testing.T) {
	b, ok := spec.ByName("mcf")
	if !ok {
		t.Fatal("mcf not in roster")
	}
	const commits = 15_000

	var specs []BatchSpec
	for _, pol := range []Policy{PolicyBaseline, PolicySquashL1, PolicySquashL0, PolicyThrottleL0} {
		cfg := pipeline.DefaultConfig()
		pol.Apply(&cfg)
		specs = append(specs, BatchSpec{Pipeline: cfg, FrontEnd: true, StoreBuffer: true})
	}
	narrow := pipeline.DefaultConfig()
	narrow.IQSize = 16
	narrow.StoreBufferSize = 4
	specs = append(specs, BatchSpec{Pipeline: narrow})

	batched, err := RunBatchContext(context.Background(), b.Params, commits, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range specs {
		solo, err := runSolo(context.Background(), Config{
			Workload:    b.Params,
			Pipeline:    sp.Pipeline,
			Commits:     commits,
			FrontEnd:    sp.FrontEnd,
			StoreBuffer: sp.StoreBuffer,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(solo, batched[i]) {
			t.Fatalf("lane %d diverges from solo run:\n solo    IPC=%.6f SDC=%.6f cycles=%d\n batched IPC=%.6f SDC=%.6f cycles=%d",
				i, solo.IPC, solo.Report.SDCAVF(), solo.Cycles,
				batched[i].IPC, batched[i].Report.SDCAVF(), batched[i].Cycles)
		}
	}
}

// TestRunBatchUnshareableFallsThrough pins the typed fallback: a workload
// with a PC-indexed predictor reports ErrUnshareable so callers can route
// each spec through the solo path — and RunContext, itself a one-lane
// batch, takes that route on its own, honouring every option.
func TestRunBatchUnshareableFallsThrough(t *testing.T) {
	p := workload.Default()
	p.BranchPredictor = "gshare"
	_, err := RunBatchContext(context.Background(), p, 1000,
		[]BatchSpec{{Pipeline: pipeline.DefaultConfig()}})
	if !errors.Is(err, workload.ErrUnshareable) {
		t.Fatalf("gshare batch = %v, want ErrUnshareable", err)
	}
	res, err := RunContext(context.Background(), Config{
		Workload: p, Commits: 1000,
		KeepTrace: true, RegFile: true, FrontEnd: true, StoreBuffer: true,
	})
	if err != nil {
		t.Fatalf("gshare RunContext = %v, want the solo fallback", err)
	}
	if res.Trace == nil || res.RegFile == nil || res.FrontEndReport == nil || res.StoreBufferReport == nil {
		t.Fatal("fallback dropped a requested report or the trace")
	}
}
