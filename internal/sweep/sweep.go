// Package sweep runs design-space grids over the simulator: the cross
// product of benchmarks, exposure policies, queue sizes and issue
// disciplines, with one long-format row per cell — the shape plotting
// tools want. It powers cmd/sweep and the ablation studies beyond the
// paper's fixed design points.
package sweep

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"

	"softerror/internal/checkpoint"
	"softerror/internal/core"
	"softerror/internal/par"
	"softerror/internal/pipeline"
	"softerror/internal/serate"
	"softerror/internal/spec"
	"softerror/internal/static"
	"softerror/internal/workload"
)

// Grid describes the design space to sweep. Every axis must be non-empty;
// the run covers the full cross product.
type Grid struct {
	Benches    []spec.Benchmark
	Policies   []core.Policy
	IQSizes    []int
	OutOfOrder []bool
	// Commits per cell (default core.DefaultCommits).
	Commits uint64
	// Workers bounds Run's parallelism; <= 0 means the par package default
	// (GOMAXPROCS, or the -j flag of the calling command).
	Workers int
	// OnError selects the failure policy: par.FailFast (default) cancels
	// the grid on the first failed cell; par.Collect finishes every other
	// cell and reports the poisoned ones as par.Errors.
	OnError par.Policy
	// Arenas supplies the reusable per-worker evaluation state (decoded
	// stream memos, warm hierarchies, collectors, lane slabs): each batch
	// leader checks one arena out for its whole batch and returns it, so
	// state carries across waves, grid chunks and checkpoint resumes.
	// Long-lived callers (seratd) share one pool across jobs and fleet
	// leases; nil falls back to the process-wide default pool. Arena reuse
	// never changes bytes — the arena-reuse seraudit check pins it.
	Arenas *core.ArenaPool
}

// Row is one cell's measurements.
type Row struct {
	Bench      string
	FP         bool
	Policy     core.Policy
	IQSize     int
	OutOfOrder bool

	IPC         float64
	SDCAVF      float64
	DUEAVF      float64
	FalseDUEAVF float64
	MeritSDC    float64 // IPC / SDC AVF, the MITF proxy
	Squashes    uint64
}

// Size returns the number of cells in the grid.
func (g *Grid) Size() int {
	return len(g.Benches) * len(g.Policies) * len(g.IQSizes) * len(g.OutOfOrder)
}

func (g *Grid) validate() error {
	if len(g.Benches) == 0 || len(g.Policies) == 0 ||
		len(g.IQSizes) == 0 || len(g.OutOfOrder) == 0 {
		return fmt.Errorf("sweep: every grid axis needs at least one value")
	}
	for _, n := range g.IQSizes {
		if n < 1 {
			return fmt.Errorf("sweep: IQ size %d invalid", n)
		}
	}
	return nil
}

// cell maps a flat index to its axis values, benchmark-major — the same
// enumeration order the serial nested loops used, so rows[i] lands exactly
// where a serial run would have appended it.
func (g *Grid) cell(i int) (b spec.Benchmark, pol core.Policy, iq int, ooo bool) {
	no := len(g.OutOfOrder)
	ni := len(g.IQSizes)
	np := len(g.Policies)
	ooo = g.OutOfOrder[i%no]
	i /= no
	iq = g.IQSizes[i%ni]
	i /= ni
	pol = g.Policies[i%np]
	i /= np
	b = g.Benches[i]
	return b, pol, iq, ooo
}

// cellConfig materialises cell i's pipeline configuration.
func (g *Grid) cellConfig(i int) (spec.Benchmark, pipeline.Config) {
	b, pol, iq, ooo := g.cell(i)
	cfg := pipeline.DefaultConfig()
	pol.Apply(&cfg)
	cfg.IQSize = iq
	cfg.OutOfOrder = ooo
	return b, cfg
}

// rowFrom folds one finished simulation into cell i's row.
func (g *Grid) rowFrom(i int, res *core.Result) Row {
	b, pol, iq, ooo := g.cell(i)
	return Row{
		Bench:       b.Name,
		FP:          b.FP,
		Policy:      pol,
		IQSize:      iq,
		OutOfOrder:  ooo,
		IPC:         res.IPC,
		SDCAVF:      res.Report.SDCAVF(),
		DUEAVF:      res.Report.DUEAVF(),
		FalseDUEAVF: res.Report.FalseDUEAVF(),
		MeritSDC:    serate.Merit(res.IPC, res.Report.SDCAVF()),
		Squashes:    res.Squashes,
	}
}

// maxBatchLanes bounds how many cells one batched simulation drives. Cells
// sharing a benchmark are spread round-robin over ceil(block/maxBatchLanes)
// groups of near-equal size. The pool dispatches every group's leader
// before any other member (leadersFirst), so workers start different
// batches instead of queueing behind one.
const maxBatchLanes = 8

// groupRun is the shared state of one batch group: the cells of one
// benchmark that evaluate together over a single decode of its instruction
// stream. The first cell task to arrive becomes the leader and simulates
// every still-pending member in one core.RunBatchArena pass; the others wait
// on done and collect their rows, or the batch's failure. Each cell still
// checkpoints and reports progress from its own task, so failure blame and
// resume keep per-cell granularity.
type groupRun struct {
	bench   spec.Benchmark
	members []int

	mu   sync.Mutex
	done chan struct{} // non-nil while a leader is simulating
	rows map[int]Row   // batched results awaiting their cell's task
	err  error         // the batch's failure, returned to every member
}

// buildGroups assigns each of the given cells to a batch group. Cells of
// one benchmark are spread round-robin over ceil(count/maxBatchLanes)
// groups, so a lease holding a subset of a bench's cells still batches
// them over one decode. Grouping fixes only which cells share a pass; the
// dispatch order is leadersFirst's. Cells outside the grid get no group:
// checkpoint.Run rejects them before any task runs.
func (g *Grid) buildGroups(indices []int) map[int]*groupRun {
	blk := len(g.Policies) * len(g.IQSizes) * len(g.OutOfOrder)
	byBench := make(map[int][]int)
	for _, i := range indices {
		if i >= 0 && i < g.Size() {
			byBench[i/blk] = append(byBench[i/blk], i)
		}
	}
	index := make(map[int]*groupRun, len(indices))
	for bi, cells := range byBench {
		ng := (len(cells) + maxBatchLanes - 1) / maxBatchLanes
		benchGroups := make([]*groupRun, ng)
		for k := range benchGroups {
			benchGroups[k] = &groupRun{bench: g.Benches[bi], rows: make(map[int]Row)}
		}
		for o, i := range cells {
			gr := benchGroups[o%ng]
			gr.members = append(gr.members, i)
			index[i] = gr
		}
	}
	return index
}

// leadersFirst is the dispatch order over n tasks: the tasks already done
// (restored from a checkpoint, so they cost nothing), then the first
// pending task of each batch group in ascending task order, then every
// other pending task in ascending order. groupOf maps a task to its group.
// Dispatching a member before its group's leader has finished only parks
// that worker in cellRow, so putting the leaders first is what lets the
// batches run side by side.
func leadersFirst(n int, groupOf func(k int) *groupRun, done func(k int) bool) []int {
	order := make([]int, 0, n)
	var leaders, rest []int
	led := make(map[*groupRun]bool)
	for k := 0; k < n; k++ {
		switch gr := groupOf(k); {
		case done(k):
			order = append(order, k)
		case !led[gr]:
			led[gr] = true
			leaders = append(leaders, k)
		default:
			rest = append(rest, k)
		}
	}
	return append(append(order, leaders...), rest...)
}

// cellRow produces cell i's row through the group's shared batch. A batch
// is simulated once: when it fails, every member returns the same error,
// since re-running a deterministic batch fails the same way. Only a leader
// whose own context was cancelled leaves no verdict; a waiter that is still
// live then claims leadership and runs the batch itself.
func (g *Grid) cellRow(ctx context.Context, i int, gr *groupRun, ck *checkpoint.File[Row], commits uint64) (Row, error) {
	for {
		gr.mu.Lock()
		if r, ok := gr.rows[i]; ok {
			gr.mu.Unlock()
			return r, nil
		}
		if gr.err != nil {
			gr.mu.Unlock()
			return Row{}, gr.err
		}
		if gr.done == nil {
			done := make(chan struct{})
			gr.done = done
			gr.mu.Unlock()
			if err := g.leadBatch(ctx, gr, ck, commits, done); err != nil {
				return Row{}, err
			}
			continue
		}
		done := gr.done
		gr.mu.Unlock()
		select {
		case <-done:
		case <-ctx.Done():
			return Row{}, ctx.Err()
		}
	}
}

// leadBatch simulates every member of gr that is neither checkpointed nor
// already computed, in one batched pass, and parks the rows for their
// tasks, or the failure for all of them unless ctx was cancelled. The done
// channel is closed on every exit path, so waiters never hang on a dead
// leader; a panicking simulation is recorded as the group's failure and
// re-panics, so the leader's par.TaskError keeps the stack.
func (g *Grid) leadBatch(ctx context.Context, gr *groupRun, ck *checkpoint.File[Row], commits uint64, done chan struct{}) (err error) {
	defer func() {
		r := recover()
		gr.mu.Lock()
		if r != nil {
			gr.err = fmt.Errorf("sweep: %s batch panicked: %v", gr.bench.Name, r)
		} else if err != nil && ctx.Err() == nil {
			gr.err = err
		}
		gr.done = nil
		gr.mu.Unlock()
		close(done)
		if r != nil {
			panic(r)
		}
	}()
	gr.mu.Lock()
	var pending []int
	for _, j := range gr.members {
		if _, ok := gr.rows[j]; !ok && !ck.Done(j) {
			pending = append(pending, j)
		}
	}
	gr.mu.Unlock()
	if len(pending) == 0 {
		return nil
	}
	specs := make([]core.BatchSpec, len(pending))
	for k, j := range pending {
		_, cfg := g.cellConfig(j)
		specs[k] = core.BatchSpec{Pipeline: cfg}
	}
	a := g.Arenas.Get()
	res, err := core.RunBatchArena(ctx, a, gr.bench.Params, commits, specs)
	g.Arenas.Put(a)
	if err != nil {
		return fmt.Errorf("sweep: %s batch (%d cells): %w",
			gr.bench.Name, len(pending), err)
	}
	gr.mu.Lock()
	for k, j := range pending {
		gr.rows[j] = g.rowFrom(j, res[k])
	}
	gr.mu.Unlock()
	return nil
}

// EstimateCells prices every cell analytically: one decode of each
// benchmark's stream, loaded into the static analyzer, then one
// static.Analyzer.Estimate per cell — counter arithmetic, no deadness view
// and no simulation. Each benchmark decodes into the previous one's memo
// arrays (workload.Shared.Recycle), so pricing a grid holds one body memo
// however many benchmarks it spans. The returned slice is indexed like the
// rows (benchmark-major cell order) and holds each cell's estimated
// simulated cycle count (static.Bounds.EstCycles). ok is false when the
// static analyzer cannot bound some benchmark (PC-indexed branch
// predictors) or the grid is invalid; callers then fall back to unpriced
// behaviour.
func (g *Grid) EstimateCells() (est []uint64, ok bool) {
	if err := g.validate(); err != nil {
		return nil, false
	}
	commits := g.Commits
	if commits == 0 {
		commits = core.DefaultCommits
	}
	if commits > 1<<31 {
		return nil, false // pricing must stay cheap; don't decode absurd bodies
	}
	est = make([]uint64, g.Size())
	blk := len(g.Policies) * len(g.IQSizes) * len(g.OutOfOrder)
	a := static.NewAnalyzer()
	var prev *workload.Shared
	for bi, b := range g.Benches {
		sh, err := workload.NewShared(b.Params)
		if err != nil {
			return nil, false
		}
		if prev != nil {
			sh.Recycle(prev)
		}
		prev = sh
		a.Load(sh.BodyPrefix(int(commits)+static.BodySlack), commits)
		for o := 0; o < blk; o++ {
			i := bi*blk + o
			_, cfg := g.cellConfig(i)
			est[i] = a.Estimate(cfg)
		}
	}
	return est, true
}

// OrderByEstimate returns every cell index ordered by ascending estimate
// (ties in cell order, so the order is deterministic). Running cheap cells
// first shortens time-to-first-result and drains stragglers last; it never
// changes bytes when rows are scattered back to cell order.
func OrderByEstimate(est []uint64) []int {
	order := make([]int, len(est))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return est[order[a]] < est[order[b]] })
	return order
}

// Fingerprint identifies the grid's full parameterisation (every axis that
// changes what a cell index means or measures) for checkpoint validation.
func (g *Grid) Fingerprint() string {
	commits := g.Commits
	if commits == 0 {
		commits = core.DefaultCommits
	}
	parts := []any{"sweep-grid", commits}
	for _, b := range g.Benches {
		parts = append(parts, b.Name)
	}
	for _, p := range g.Policies {
		parts = append(parts, uint8(p))
	}
	for _, n := range g.IQSizes {
		parts = append(parts, n)
	}
	for _, o := range g.OutOfOrder {
		parts = append(parts, o)
	}
	return checkpoint.Fingerprint(parts...)
}

// Run executes the grid on the worker pool and returns one row per cell, in
// axis order (benchmark-major) regardless of scheduling: each worker writes
// only its own index of a pre-sized slice. progress, if non-nil, is called
// after each completed cell with a strictly increasing done count.
func (g *Grid) Run(progress func(done, total int)) ([]Row, error) {
	rows, err := g.RunContext(context.Background(), nil, progress)
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RunContext is Run with cancellation, an optional checkpoint, and the
// grid's failure policy (OnError) applied. It is
// RunIndices over every cell in axis order, so its rows are in cell order.
//
// Cells sharing a benchmark evaluate in batches of up to maxBatchLanes
// configurations over one decode of the instruction stream
// (core.RunBatchArena); batching changes only wall-clock, never bytes —
// every cell's row is identical to an independent run.
func (g *Grid) RunContext(ctx context.Context, ck *checkpoint.File[Row], progress func(done, total int)) ([]Row, error) {
	cells := make([]int, g.Size())
	for i := range cells {
		cells[i] = i
	}
	return g.RunIndices(ctx, cells, ck, progress)
}

// RunIndices executes exactly the given cells of the grid and returns their
// rows index-parallel to indices (out[k] is cell indices[k]). It is the
// lease-execution primitive of fleet mode: a worker handed an arbitrary
// subset of a grid produces rows identical to the ones a full local run
// computes for those cells — batching within the subset included.
//
// The cells run through checkpoint.Run, which owns the checkpoint protocol
// (ck may be nil): a checkpoint not sized for the grid is rejected, recorded
// cells are restored rather than re-simulated, newly completed cells are
// written back and ck is flushed on every exit, so an interrupted grid
// resumes where it stopped; determinism by cell index makes the resumed
// artefact byte-identical to an uninterrupted run. progress, when non-nil,
// is called with a monotonic done count over len(indices). On failure the
// partial rows come back alongside the error — under par.Collect a
// par.Errors naming exactly the poisoned cells (grid cell indices, not
// positions in indices), every other row being valid.
func (g *Grid) RunIndices(ctx context.Context, indices []int, ck *checkpoint.File[Row], progress func(done, total int)) ([]Row, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	commits := g.Commits
	if commits == 0 {
		commits = core.DefaultCommits
	}
	groups := g.buildGroups(indices)
	opts := par.Options{
		Workers: g.Workers,
		Policy:  g.OnError,
		Order: leadersFirst(len(indices), func(k int) *groupRun { return groups[indices[k]] },
			func(k int) bool { return ck.Done(indices[k]) }),
	}
	return checkpoint.Run(ctx, ck, g.Size(), indices, opts, progress,
		func(ctx context.Context, i int) (Row, error) {
			return g.cellRow(ctx, i, groups[i], ck, commits)
		})
}

// csvHeader is the long-format column set.
var csvHeader = []string{
	"bench", "suite", "policy", "iq_size", "out_of_order",
	"ipc", "sdc_avf", "due_avf", "false_due_avf", "merit_sdc", "squashes",
}

// CSVWriter streams rows to an io.Writer in the long format, one row at a
// time, writing the header before the first row. Producers that learn rows
// incrementally — the server's job CSV endpoint, a resumed campaign —
// share it with the batch writers below, so every CSV in the system is
// byte-identical regardless of which path emitted it. Not safe for
// concurrent use.
type CSVWriter struct {
	cw       *csv.Writer
	headered bool
}

// NewCSVWriter wraps w; nothing is written until the first WriteRow or
// Flush.
func NewCSVWriter(w io.Writer) *CSVWriter {
	return &CSVWriter{cw: csv.NewWriter(w)}
}

// WriteRow appends one row, emitting the header first when needed.
func (w *CSVWriter) WriteRow(r Row) error {
	if err := w.writeHeader(); err != nil {
		return err
	}
	suite := "int"
	if r.FP {
		suite = "fp"
	}
	return w.cw.Write([]string{
		r.Bench, suite, r.Policy.String(),
		strconv.Itoa(r.IQSize), strconv.FormatBool(r.OutOfOrder),
		fmt.Sprintf("%.4f", r.IPC),
		fmt.Sprintf("%.6f", r.SDCAVF),
		fmt.Sprintf("%.6f", r.DUEAVF),
		fmt.Sprintf("%.6f", r.FalseDUEAVF),
		fmt.Sprintf("%.4f", r.MeritSDC),
		strconv.FormatUint(r.Squashes, 10),
	})
}

func (w *CSVWriter) writeHeader() error {
	if w.headered {
		return nil
	}
	w.headered = true
	return w.cw.Write(csvHeader)
}

// Flush drains buffered rows to the underlying writer and reports any
// write error. An empty grid still yields a well-formed CSV: Flush writes
// the header even when no row was.
func (w *CSVWriter) Flush() error {
	if err := w.writeHeader(); err != nil {
		return err
	}
	w.cw.Flush()
	return w.cw.Error()
}

// WriteCSV emits the rows in long format with a header.
func WriteCSV(w io.Writer, rows []Row) error {
	return WriteCSVSkipping(w, rows, nil)
}

// WriteCSVSkipping emits the rows in long format, omitting the flagged
// indices — the poisoned cells of a collect-and-continue run, whose zero
// rows would otherwise masquerade as measurements.
func WriteCSVSkipping(w io.Writer, rows []Row, skip map[int]bool) error {
	sw := NewCSVWriter(w)
	for i, r := range rows {
		if skip[i] {
			continue
		}
		if err := sw.WriteRow(r); err != nil {
			return err
		}
	}
	return sw.Flush()
}
