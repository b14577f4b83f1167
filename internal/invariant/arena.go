package invariant

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"

	"softerror/internal/core"
	"softerror/internal/isa"
	"softerror/internal/pipeline"
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
// not just a diverging fresh computation. Last, two goroutines run one
// workload at once, one of them on a private copy of the stream the other
// holds (concurrentSameKey).
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
	// replacement of the arena's deadness group.
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
	// Revisit round 0 on the dirty arena: its deadness group was replaced
	// by the later rounds' (an arena keeps one), and the Results retained
	// above must have survived every intervening reuse untouched.
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

	// Leg 3: one workload on two goroutines at once.
	params := RandomWorkload(s)
	if _, err := workload.NewShared(params); errors.Is(err, workload.ErrUnshareable) {
		params.BranchPredictor = "" // only shareable streams are kept
	}
	return concurrentSameKey(ctx, params, RandomPipelineConfig(s), opt.Commits)
}

// concurrentSameKey runs one workload on two goroutines at once. The
// first run's sink parks it inside its simulation — with the workload's
// kept stream checked out of the store — until the second run has
// finished, so the second decodes a private copy of the stream. Both must
// equal a third run made afterwards, which finds the kept stream again.
func concurrentSameKey(ctx context.Context, params workload.Params, cfg pipeline.Config, commits uint64) error {
	holding, done := make(chan struct{}), make(chan struct{})
	var once sync.Once
	hold := func() { once.Do(func() { close(holding) }) }
	run := func(sink pipeline.Sink) (*core.Result, error) {
		return core.RunContext(ctx, core.Config{Workload: params, Commits: commits, Pipeline: cfg, Sink: sink})
	}
	st := workload.Streams()
	var first, second *core.Result
	var err1, err2 error
	var decoded uint64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer hold() // unblock the second run even if the first fails early
		first, err1 = run(&parkSink{park: func() { hold(); <-done }})
	}()
	go func() {
		defer wg.Done()
		defer close(done)
		<-holding
		d0 := st.Decodes()
		second, err2 = run(nil)
		decoded = st.Decodes() - d0
	}()
	wg.Wait()
	if err := errors.Join(err1, err2); err != nil {
		return err
	}
	if decoded == 0 {
		return fmt.Errorf("a run beside another holding its workload's stream decoded nothing: the stream was shared")
	}
	after, err := run(nil)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(first, after) {
		return fmt.Errorf("the run holding the kept stream diverges from a later run")
	}
	if !reflect.DeepEqual(second, after) {
		return fmt.Errorf("the run on a private stream copy diverges from a run on the kept stream")
	}
	return nil
}

// parkSink calls park on the first commit it sees and ignores every event.
type parkSink struct {
	park   func()
	parked bool
}

func (p *parkSink) OnCommit(isa.Inst, uint64, uint64) {
	if !p.parked {
		p.parked = true
		p.park()
	}
}

func (*parkSink) OnResidency(pipeline.Residency)   {}
func (*parkSink) OnFrontEnd(pipeline.Residency)    {}
func (*parkSink) OnStoreBuffer(pipeline.Residency) {}
