package invariant

import (
	"context"
	"fmt"
	"reflect"

	"softerror/internal/core"
	"softerror/internal/rng"
)

// checkBatchedIndependent pins the tentpole identity of the batched
// evaluation path on randomised inputs: K random configurations evaluated
// over one decode of a random workload's stream (core.RunBatchContext)
// must produce Results equal — reports, deadness, stats, everything — to
// K independent reference-trace oracle runs (soloOracle). The batch width, each
// lane's geometry and each lane's optional analyses all vary per seed.
func checkBatchedIndependent(seed uint64, opt Options) error {
	opt = opt.withDefaults()
	s := rng.New(seed, 0xBA7C)
	params := RandomWorkload(s)
	k := 2 + s.Intn(4)
	specs := make([]core.BatchSpec, k)
	for i := range specs {
		specs[i] = core.BatchSpec{
			Pipeline:    RandomPipelineConfig(s),
			FrontEnd:    s.Bool(0.5),
			StoreBuffer: s.Bool(0.5),
		}
	}

	batched, err := core.RunBatchContext(context.Background(), params, opt.Commits, specs)
	if err != nil {
		return err
	}
	for i, sp := range specs {
		solo, _, err := soloOracle(params, sp.Pipeline, opt.Commits, sp.FrontEnd, sp.StoreBuffer, false)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(solo, batched[i]) {
			return fmt.Errorf("batched lane %d of %d diverges from its independent run "+
				"(solo IPC=%.6f SDC=%.6f cycles=%d; batched IPC=%.6f SDC=%.6f cycles=%d; cfg=%+v)",
				i, k, solo.IPC, solo.Report.SDCAVF(), solo.Cycles,
				batched[i].IPC, batched[i].Report.SDCAVF(), batched[i].Cycles, sp.Pipeline)
		}
	}
	return nil
}
