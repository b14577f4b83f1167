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
	// the grid on the first failed batch; par.Collect finishes every other
	// batch and reports the poisoned batches' cells as par.Errors.
	OnError par.Policy
	// Arenas supplies the reusable per-worker evaluation state (warm
	// hierarchies, collectors, deadness memos, lane slabs): each batch
	// task checks one arena out for its whole batch and returns it, so
	// state carries across waves, grid chunks and checkpoint resumes. nil
	// (what seratd's jobs and fleet leases use) is the process-wide default
	// pool. Decoded streams come from the process-wide workload.Streams
	// store either way. Arena reuse never changes bytes — the arena-reuse
	// seraudit check pins it.
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
// sharing a benchmark are spread round-robin over ceil(count/maxBatchLanes)
// groups of near-equal size.
const maxBatchLanes = 8

// batchGroups splits the pending positions of indices (those run did not
// restore) into batch groups, each a list of positions whose cells share a
// benchmark and so evaluate together over a single decode of its
// instruction stream. A benchmark's pending cells are spread round-robin
// over ceil(count/maxBatchLanes) groups, so a lease holding a subset of a
// bench's cells still batches them over one decode. The groups come back
// ordered by their first position, which is how the caller's cell order
// (a cheapest-first order, say) decides which batch starts first. A group
// whose cells were all restored does not exist.
func (g *Grid) batchGroups(indices []int, run *checkpoint.Cells[Row]) [][]int {
	blk := len(g.Policies) * len(g.IQSizes) * len(g.OutOfOrder)
	byBench := make([][]int, len(g.Benches))
	for k, i := range indices {
		if !run.Restored(k) {
			byBench[i/blk] = append(byBench[i/blk], k)
		}
	}
	var groups [][]int
	for _, ks := range byBench {
		ng := (len(ks) + maxBatchLanes - 1) / maxBatchLanes
		bench := make([][]int, ng)
		for o, k := range ks {
			bench[o%ng] = append(bench[o%ng], k)
		}
		groups = append(groups, bench...)
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a][0] < groups[b][0] })
	return groups
}

// runBatch simulates one batch group — positions of indices — in a single
// core.RunBatchArena pass and lands every member's row in run.
func (g *Grid) runBatch(ctx context.Context, run *checkpoint.Cells[Row], indices, group []int, commits uint64) error {
	specs := make([]core.BatchSpec, len(group))
	for m, k := range group {
		_, cfg := g.cellConfig(indices[k])
		specs[m] = core.BatchSpec{Pipeline: cfg}
	}
	b, _, _, _ := g.cell(indices[group[0]])
	a := g.Arenas.Get()
	res, err := core.RunBatchArena(ctx, a, b.Params, commits, specs)
	g.Arenas.Put(a)
	if err != nil {
		return fmt.Errorf("sweep: %s batch (%d cells): %w", b.Name, len(group), err)
	}
	for m, k := range group {
		if err := run.Land(k, g.rowFrom(indices[k], res[m])); err != nil {
			return err
		}
	}
	return nil
}

// blameMembers turns a failure of the batch tasks into one over positions:
// a failed group becomes one TaskError per member, each with the group's
// error (and stack, for a panic), and a fail-fast failure names the group's
// first position.
func blameMembers(err error, groups [][]int) error {
	switch e := err.(type) {
	case par.Errors:
		var out par.Errors
		for _, te := range e {
			for _, k := range groups[te.Index] {
				out = append(out, &par.TaskError{Index: k, Err: te.Err, Stack: te.Stack})
			}
		}
		return out
	case *par.TaskError:
		e.Index = groups[e.Index][0]
	}
	return err
}

// EstimateCells prices every cell analytically: each benchmark's decoded
// stream, checked out of the process-wide store (workload.Streams) and
// loaded into the static analyzer, then one static.Analyzer.Estimate per
// cell — counter arithmetic, no deadness view and no simulation. A stream
// an earlier eval, sweep or bound decoded is priced without decoding it
// again, and the grid's own decodes stay for the run that follows. The
// returned slice is indexed like the rows (benchmark-major cell order) and
// holds each cell's estimated simulated cycle count
// (static.Bounds.EstCycles). ok is false when the static analyzer cannot
// bound some benchmark (PC-indexed branch predictors), the grid is
// invalid, or Commits exceeds core.MaxServedCommits; callers then fall
// back to unpriced behaviour.
func (g *Grid) EstimateCells() (est []uint64, ok bool) {
	if err := g.validate(); err != nil {
		return nil, false
	}
	commits := g.Commits
	if commits == 0 {
		commits = core.DefaultCommits
	}
	if commits > core.MaxServedCommits {
		return nil, false // pricing must stay cheap; don't decode absurd bodies
	}
	n := int(commits) + static.BodySlack
	est = make([]uint64, g.Size())
	blk := len(g.Policies) * len(g.IQSizes) * len(g.OutOfOrder)
	a := static.NewAnalyzer()
	for bi, b := range g.Benches {
		sh, err := workload.Streams().Checkout(b.Params, n, 0)
		if err != nil {
			return nil, false
		}
		a.Load(sh.BodyPrefix(n), commits)
		for o := 0; o < blk; o++ {
			i := bi*blk + o
			_, cfg := g.cellConfig(i)
			est[i] = a.Estimate(cfg)
		}
		workload.Streams().Release(sh)
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
// The cells run through one checkpoint.Cells (ck may be nil): a checkpoint
// not sized for the grid is rejected, recorded cells are restored rather
// than re-simulated, and each batch lands its rows as it finishes, so an
// interrupted grid resumes where it stopped; determinism by cell index
// makes the resumed artefact byte-identical to an uninterrupted run. The
// pending cells form batch groups (batchGroups) and each group is one par
// task, dispatched in order of its first position in indices. progress,
// when non-nil, is called with a monotonic done count over len(indices).
// On failure the partial rows come back alongside the error. A failed
// batch fails every member: under par.Collect a par.Errors names exactly
// the poisoned groups' cells (grid cell indices, not positions in
// indices), each with its group's error, every other row being valid;
// under par.FailFast the *par.TaskError names the group's first cell.
func (g *Grid) RunIndices(ctx context.Context, indices []int, ck *checkpoint.File[Row], progress func(done, total int)) ([]Row, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	commits := g.Commits
	if commits == 0 {
		commits = core.DefaultCommits
	}
	run, err := checkpoint.Begin(ck, g.Size(), indices, progress)
	if err != nil {
		return nil, err
	}
	groups := g.batchGroups(indices, run)
	err = par.Run(ctx, len(groups), par.Options{Workers: g.Workers, Policy: g.OnError},
		func(ctx context.Context, t int) error {
			return g.runBatch(ctx, run, indices, groups[t], commits)
		})
	return run.End(blameMembers(err, groups))
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
