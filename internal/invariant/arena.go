package invariant

import (
	"bytes"
	"context"
	"fmt"
	"reflect"

	"softerror/internal/core"
	"softerror/internal/rng"
	"softerror/internal/workload"
)

// checkArenaReuse pins the bit-invisibility of the evaluation arena: a
// batch evaluated on an arena already dirtied by other workloads and
// geometries must produce Results equal — reports, deadness, stats,
// everything — to the same batch on a fresh arena, and a sweep grid drawing
// from a shared, pre-warmed ArenaPool must render byte-identical CSV to one
// running without any pool. The check also re-runs an earlier batch on the
// dirty arena and re-compares its previously retained Results, so a pooled
// collector or hierarchy clobbering state a caller still holds is caught,
// not just a diverging fresh computation.
func checkArenaReuse(seed uint64, opt Options) error {
	opt = opt.withDefaults()
	s := rng.New(seed, 0xA4EA)
	ctx := context.Background()

	type round struct {
		params workload.Params
		specs  []core.BatchSpec
		want   []*core.Result
	}

	randomBatch := func() ([]core.BatchSpec, workload.Params) {
		params := RandomWorkload(s)
		k := 1 + s.Intn(3)
		specs := make([]core.BatchSpec, k)
		for i := range specs {
			specs[i] = core.BatchSpec{
				Pipeline:    RandomPipelineConfig(s),
				FrontEnd:    s.Bool(0.5),
				StoreBuffer: s.Bool(0.5),
			}
		}
		return specs, params
	}

	// Leg 1: Results on one persistently dirtied arena versus a fresh arena
	// per batch. Three rounds of distinct workloads overflow nothing but do
	// exercise collector Reset, hierarchy CloneInto re-stamping and the
	// replacement of the arena's kept stream.
	dirty := core.NewArena()
	rounds := make([]round, 0, 3)
	for r := 0; r < 3; r++ {
		specs, params := randomBatch()
		want, err := core.RunBatchArena(ctx, core.NewArena(), params, opt.Commits, specs)
		if err != nil {
			return err
		}
		got, err := core.RunBatchArena(ctx, dirty, params, opt.Commits, specs)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(want, got) {
			return fmt.Errorf("round %d: reused arena diverges from fresh arena (k=%d)",
				r, len(specs))
		}
		rounds = append(rounds, round{params: params, specs: specs, want: want})
	}
	// Revisit round 0 on the dirty arena: its stream was replaced by the
	// later rounds' (an arena keeps one), and the Results retained above
	// must have survived every intervening reuse untouched.
	first := rounds[0]
	again, err := core.RunBatchArena(ctx, dirty, first.params, opt.Commits, first.specs)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(first.want, again) {
		return fmt.Errorf("revisiting the first batch on the dirty arena diverges from its retained Results")
	}

	// Leg 2: CSV bytes. The same random grid rendered with no pool, with a
	// pool seeded by the dirty arena, and a second pass on the now-warm
	// pool must agree byte for byte.
	newGrid := randomGridSpec(s, opt)
	plain := newGrid()
	plain.Workers = opt.Workers
	plainCSV, err := gridCSV(plain)
	if err != nil {
		return err
	}
	pool := core.NewArenaPool()
	pool.Put(dirty)
	pooled := newGrid()
	pooled.Workers = opt.Workers
	pooled.Arenas = pool
	pooledCSV, err := gridCSV(pooled)
	if err != nil {
		return err
	}
	if !bytes.Equal(plainCSV, pooledCSV) {
		return fmt.Errorf("grid CSV with a dirtied arena pool differs from the pool-free run (%d vs %d bytes)",
			len(pooledCSV), len(plainCSV))
	}
	warm := newGrid()
	warm.Workers = opt.Workers
	warm.Arenas = pool
	warmCSV, err := gridCSV(warm)
	if err != nil {
		return err
	}
	if !bytes.Equal(plainCSV, warmCSV) {
		return fmt.Errorf("second grid pass on the warm arena pool differs from the pool-free run (%d vs %d bytes)",
			len(warmCSV), len(plainCSV))
	}
	return nil
}
