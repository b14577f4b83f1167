// Package fleet turns seratd from one process into a coordinated fleet: a
// coordinator cuts a sweep grid into leases of consecutive cells, puts them
// on one shared queue from which every free worker daemon takes the next,
// and delivers them over the workers' HTTP surface with per-lease
// timeouts, heartbeat-driven health and graceful degradation to local
// execution when no worker is healthy. A lease is sent to a worker once:
// if that delivery fails, the worker sits out the wave and the lease goes
// back on the queue for the others, since a deterministic lease would fail
// the same way again. A straggler holds only the lease it is running while
// the other workers drain the queue.
//
// The package's contract is byte-identity: because every sweep cell is
// deterministic by index and rows are reassembled by cell index, a grid run
// on one worker, on N workers, on N crashing/hanging/slow workers, or
// entirely locally renders the same CSV bytes. The fleet-identity check in
// internal/invariant pins exactly that under injected chaos.
package fleet

import (
	"errors"
	"fmt"
	"net"
	"net/url"
	"strconv"
	"strings"

	"softerror/internal/core"
	"softerror/internal/spec"
	"softerror/internal/sweep"
)

// MaxGridCells bounds the grid a lease may reference, mirroring the
// coordinator-side sweep admission cap: a worker must not let one lease
// request queue unbounded simulation.
const MaxGridCells = 16384

// Typed admission errors. Wire handlers match them with errors.Is and
// reject the request before any simulation is admitted.
var (
	// ErrEmptyLease: a lease carrying no cell ranges.
	ErrEmptyLease = errors.New("fleet: lease has no ranges")
	// ErrInvertedRange: a range with hi < lo or a negative bound.
	ErrInvertedRange = errors.New("fleet: inverted cell range")
	// ErrRangeBounds: a range reaching beyond the grid's cell space.
	ErrRangeBounds = errors.New("fleet: cell range beyond grid bounds")
	// ErrRangeOverlap: ranges out of order or overlapping — a lease names
	// every cell at most once, in ascending order.
	ErrRangeOverlap = errors.New("fleet: overlapping or unsorted cell ranges")
	// ErrBadGrid: the lease's grid specification does not build.
	ErrBadGrid = errors.New("fleet: bad grid spec")
	// ErrBadAddr: a worker address that is not a bare host:port.
	ErrBadAddr = errors.New("fleet: bad worker address")
)

// GridSpec is the wire form of a sweep grid: the axes by name, exactly
// enough to rebuild the grid on a worker. It deliberately excludes the
// coordinator's failure policy (OnError) — lease reassignment after
// failures is the coordinator's job, so workers run leases fail-fast
// and report errors upward.
type GridSpec struct {
	Benches    []string `json:"benches"`
	Policies   []string `json:"policies"`
	IQSizes    []int    `json:"iqsizes"`
	OutOfOrder []bool   `json:"ooo"`
	Commits    uint64   `json:"commits,omitempty"`
}

// SpecOf captures a built grid's axes in wire form. Build(SpecOf(g)) yields
// a grid with g's fingerprint.
func SpecOf(g *sweep.Grid) GridSpec {
	sp := GridSpec{
		IQSizes:    append([]int(nil), g.IQSizes...),
		OutOfOrder: append([]bool(nil), g.OutOfOrder...),
		Commits:    g.Commits,
	}
	for _, b := range g.Benches {
		sp.Benches = append(sp.Benches, b.Name)
	}
	for _, p := range g.Policies {
		sp.Policies = append(sp.Policies, p.Flag())
	}
	return sp
}

// Build rebuilds the sweep grid a spec names, validating every axis and
// capping the commits per cell at core.MaxServedCommits, so no grid a
// sweep or lease request names can reserve an absurd stream. Failures
// wrap ErrBadGrid.
func (sp GridSpec) Build() (*sweep.Grid, error) {
	if len(sp.Benches) == 0 {
		return nil, fmt.Errorf("%w: no benchmarks", ErrBadGrid)
	}
	benches, err := spec.ParseList(strings.Join(sp.Benches, ","))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadGrid, err)
	}
	if len(sp.Policies) == 0 {
		return nil, fmt.Errorf("%w: no policies", ErrBadGrid)
	}
	policies := make([]core.Policy, len(sp.Policies))
	for i, p := range sp.Policies {
		if policies[i], err = core.ParsePolicy(p); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadGrid, err)
		}
	}
	g := &sweep.Grid{
		Benches:    benches,
		Policies:   policies,
		IQSizes:    sp.IQSizes,
		OutOfOrder: sp.OutOfOrder,
		Commits:    sp.Commits,
	}
	if len(g.IQSizes) == 0 {
		g.IQSizes = []int{64}
	}
	if len(g.OutOfOrder) == 0 {
		g.OutOfOrder = []bool{false}
	}
	for _, iq := range g.IQSizes {
		if iq < 1 {
			return nil, fmt.Errorf("%w: IQ size %d, want >= 1", ErrBadGrid, iq)
		}
	}
	if n := g.Size(); n < 1 || n > MaxGridCells {
		return nil, fmt.Errorf("%w: grid spans %d cells, want 1..%d", ErrBadGrid, n, MaxGridCells)
	}
	if g.Commits > core.MaxServedCommits {
		return nil, fmt.Errorf("%w: %d commits per cell, want at most %d", ErrBadGrid, g.Commits, core.MaxServedCommits)
	}
	return g, nil
}

// Range is a half-open run of grid cell indices [Lo, Hi).
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Count returns the number of cells in the range.
func (r Range) Count() int { return r.Hi - r.Lo }

// LeaseRequest is the POST /v1/lease body: one unit of fleet work — a set
// of cell ranges of one grid, leased to one worker.
type LeaseRequest struct {
	Lease  string   `json:"lease"`
	Grid   GridSpec `json:"grid"`
	Ranges []Range  `json:"ranges"`
}

// Validate admission-checks the lease's ranges against a grid of the given
// size: non-empty, each range well-formed and in bounds, ranges ascending
// and disjoint. Violations wrap the typed errors above.
func (l LeaseRequest) Validate(gridSize int) error {
	if len(l.Ranges) == 0 {
		return fmt.Errorf("%w (lease %q)", ErrEmptyLease, l.Lease)
	}
	next := 0
	for k, r := range l.Ranges {
		if r.Lo < 0 || r.Hi < r.Lo {
			return fmt.Errorf("%w: range %d is [%d, %d)", ErrInvertedRange, k, r.Lo, r.Hi)
		}
		if r.Hi == r.Lo {
			return fmt.Errorf("%w: range %d is empty [%d, %d)", ErrEmptyLease, k, r.Lo, r.Hi)
		}
		if r.Hi > gridSize {
			return fmt.Errorf("%w: range %d is [%d, %d), grid has %d cells", ErrRangeBounds, k, r.Lo, r.Hi, gridSize)
		}
		if r.Lo < next {
			return fmt.Errorf("%w: range %d starts at %d, previous ended at %d", ErrRangeOverlap, k, r.Lo, next)
		}
		next = r.Hi
	}
	return nil
}

// Cells flattens the ranges into ascending cell indices.
func (l LeaseRequest) Cells() []int {
	var cells []int
	for _, r := range l.Ranges {
		for i := r.Lo; i < r.Hi; i++ {
			cells = append(cells, i)
		}
	}
	return cells
}

// CellRow carries one computed cell over the wire: the grid cell index and
// its row. Row fields are float64s and integers, which encoding/json
// round-trips exactly, so rows crossing the fleet are bit-equal to rows
// computed locally.
type CellRow struct {
	Index int       `json:"index"`
	Row   sweep.Row `json:"row"`
}

// LeaseResponse is the 200 body of a lease execution: every leased cell,
// exactly once.
type LeaseResponse struct {
	Lease string    `json:"lease"`
	Rows  []CellRow `json:"rows"`
}

// rowsFor extracts the response rows in the order of cells, demanding exact
// coverage: every leased cell exactly once, nothing extra. A violation is a
// protocol error the coordinator treats as fatal — serving a grid with
// silently missing or duplicated cells would break byte-identity.
func (resp LeaseResponse) rowsFor(cells []int) ([]sweep.Row, error) {
	byIndex := make(map[int]sweep.Row, len(resp.Rows))
	for _, cr := range resp.Rows {
		if _, dup := byIndex[cr.Index]; dup {
			return nil, fmt.Errorf("fleet: lease %s response names cell %d twice", resp.Lease, cr.Index)
		}
		byIndex[cr.Index] = cr.Row
	}
	if len(byIndex) != len(cells) {
		return nil, fmt.Errorf("fleet: lease %s response has %d cells, leased %d", resp.Lease, len(byIndex), len(cells))
	}
	rows := make([]sweep.Row, len(cells))
	for k, i := range cells {
		row, ok := byIndex[i]
		if !ok {
			return nil, fmt.Errorf("fleet: lease %s response is missing cell %d", resp.Lease, i)
		}
		rows[k] = row
	}
	return rows, nil
}

// RegisterRequest is the POST /v1/fleet/register body: a worker announcing
// its serving address to the coordinator.
type RegisterRequest struct {
	Addr string `json:"addr"`
}

// RegisterResponse acknowledges a registration with the fleet's worker
// count.
type RegisterResponse struct {
	Workers int `json:"workers"`
}

// Validate admission-checks a worker address: a bare host:port (no scheme,
// no path, no control bytes) with a numeric port. Violations wrap
// ErrBadAddr.
func (r RegisterRequest) Validate() error {
	a := r.Addr
	if a == "" {
		return fmt.Errorf("%w: empty", ErrBadAddr)
	}
	if len(a) > 256 {
		return fmt.Errorf("%w: %d bytes, want <= 256", ErrBadAddr, len(a))
	}
	for i := 0; i < len(a); i++ {
		if a[i] < 0x21 || a[i] == 0x7f {
			return fmt.Errorf("%w: control or space byte at %d", ErrBadAddr, i)
		}
	}
	if strings.Contains(a, "/") {
		return fmt.Errorf("%w: %q contains a path or scheme, want bare host:port", ErrBadAddr, a)
	}
	host, port, err := net.SplitHostPort(a)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadAddr, err)
	}
	if host == "" {
		return fmt.Errorf("%w: empty host in %q", ErrBadAddr, a)
	}
	p, err := strconv.Atoi(port)
	if err != nil || p < 1 || p > 65535 {
		return fmt.Errorf("%w: port %q, want 1..65535", ErrBadAddr, port)
	}
	// The address is embedded verbatim in the coordinator's dial URLs, so
	// it must round-trip through URL parsing as exactly a host — bytes like
	// '#', '?' or '@' survive SplitHostPort but would smuggle a fragment,
	// query or userinfo into every lease (found by FuzzWorkerRegister).
	u, err := url.Parse("http://" + a)
	if err != nil || u.Host != a || u.Path != "" || u.RawQuery != "" || u.Fragment != "" || u.User != nil {
		return fmt.Errorf("%w: %q does not parse as a bare URL host", ErrBadAddr, a)
	}
	return nil
}

// rangesOf compresses ascending cell indices into disjoint ranges.
func rangesOf(cells []int) []Range {
	var out []Range
	for _, i := range cells {
		if n := len(out); n > 0 && out[n-1].Hi == i {
			out[n-1].Hi = i + 1
			continue
		}
		out = append(out, Range{Lo: i, Hi: i + 1})
	}
	return out
}
