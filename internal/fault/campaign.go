package fault

import (
	"context"
	"fmt"

	"softerror/internal/checkpoint"
	"softerror/internal/par"
)

// DefaultChunk is the number of strikes per campaign cell: small enough
// that a checkpointed campaign loses at most a few thousand strikes to a
// crash, large enough that per-cell overhead (engine construction, cell
// bookkeeping) stays negligible.
const DefaultChunk = 8192

// Campaign runs a set of injection configurations as one flat space of
// resumable cells. Each cell is a chunk of strike indices of one
// configuration; per-strike RNG streams make the partition invisible in the
// tallies, so any schedule — serial, parallel, interrupted and resumed —
// produces bit-identical per-configuration Results.
type Campaign struct {
	Injector *Injector
	Configs  []Config
	// Chunk bounds strikes per cell (default DefaultChunk).
	Chunk int
	// Opts configures the worker pool: worker count and failure policy.
	Opts par.Options
	// Checkpoint, when non-nil, records completed cells (and restores them
	// on resume, skipping their execution). Its cell count must equal
	// Cells() and its fingerprint should be built from Fingerprint().
	Checkpoint *checkpoint.File[Result]
}

// chunk resolves the per-cell strike budget.
func (c *Campaign) chunk() int {
	if c.Chunk > 0 {
		return c.Chunk
	}
	return DefaultChunk
}

// chunksOf returns how many cells configuration ci spans, without the
// overflow a rounded-up sum would hit near math.MaxInt.
func (c *Campaign) chunksOf(ci int) int {
	n, k := c.Configs[ci].Strikes, c.chunk()
	cells := n / k
	if n%k > 0 {
		cells++
	}
	return cells
}

// Cells returns the total cell count across all configurations.
func (c *Campaign) Cells() int {
	n := 0
	for ci := range c.Configs {
		n += c.chunksOf(ci)
	}
	return n
}

// cell maps a flat cell index to its configuration and strike range,
// configuration-major.
func (c *Campaign) cell(i int) (ci, lo, hi int) {
	for ci = range c.Configs {
		n := c.chunksOf(ci)
		if i < n {
			lo = i * c.chunk()
			hi = lo + min(c.chunk(), c.Configs[ci].Strikes-lo)
			return ci, lo, hi
		}
		i -= n
	}
	panic(fmt.Sprintf("fault: cell index %d out of campaign range", i))
}

// Fingerprint identifies the campaign's parameterisation (every field that
// changes what a cell index means or tallies) for checkpoint validation.
// Callers should mix in the identity of the trace the injector was built
// from (benchmark, policy, commit count).
func (c *Campaign) Fingerprint() string {
	parts := []any{"fault-campaign", c.chunk(), len(c.Configs)}
	for _, cfg := range c.Configs {
		parts = append(parts, cfg.Protection, cfg.Level, cfg.PETEntries, cfg.Strikes, cfg.Seed)
	}
	return checkpoint.Fingerprint(parts...)
}

// Run executes every cell through checkpoint.Run and returns one merged
// Result per configuration, in configuration order. The runner restores
// cells already in the checkpoint without re-running them, writes each new
// cell back, and flushes the checkpoint on every exit, so on failure or
// cancellation the completed cells survive there; the error reports why the
// campaign stopped, naming failed cells by their flat index.
func (c *Campaign) Run(ctx context.Context) ([]*Result, error) {
	if len(c.Configs) == 0 {
		return nil, nil
	}
	for i, cfg := range c.Configs {
		if cfg.Strikes <= 0 {
			return nil, fmt.Errorf("fault: config %d: Strikes = %d, want > 0", i, cfg.Strikes)
		}
	}
	cells := make([]int, c.Cells())
	for i := range cells {
		cells[i] = i
	}
	out, err := checkpoint.Run(ctx, c.Checkpoint, len(cells), cells, c.Opts, nil,
		func(ctx context.Context, i int) (Result, error) {
			ci, lo, hi := c.cell(i)
			r, err := c.Injector.RunRange(ctx, c.Configs[ci], lo, hi)
			if err != nil {
				return Result{}, err
			}
			return *r, nil
		})
	if err != nil {
		return nil, err
	}
	results := make([]*Result, len(c.Configs))
	i := 0
	for ci := range c.Configs {
		merged := &Result{}
		for k := 0; k < c.chunksOf(ci); k++ {
			merged.Merge(&out[i])
			i++
		}
		results[ci] = merged
	}
	return results, nil
}
