// Package pipeline implements the in-order, six-wide, Itanium®2-like core
// model whose 64-entry instruction queue (IQ) is the structure under study.
//
// The model is a cycle-level simulator of exactly the mechanisms that
// determine IQ residency — the quantity all of the paper's results derive
// from:
//
//   - fetch through a multi-cycle front end, with wrong-path fetch past
//     mispredicted branches until resolution;
//   - a scoreboarded, strictly in-order issue stage that stalls at the
//     first instruction with an unready source (stall-on-use), so that a
//     load miss pools younger instructions in the IQ;
//   - a data-cache hierarchy whose service level classifies each load as an
//     L0/L1/L2/memory access — the squash trigger predicate;
//   - the paper's exposure-reduction actions: squashing the IQ on a
//     triggering load miss and refetching after the miss returns, or
//     throttling fetch for the duration of the miss;
//   - a post-issue replay window during which issued entries linger in the
//     IQ without ever being read again, generating the paper's Ex-ACE
//     state.
//
// Every IQ occupancy interval is recorded as a Residency; the ace package
// turns those into SDC/DUE architectural vulnerability factors.
package pipeline

import (
	"fmt"

	"softerror/internal/cache"
)

// Trigger selects the cache-miss event that fires an exposure-reduction
// action (paper §3.1). TriggerL1Miss fires on loads serviced beyond the L1
// (≈25-cycle latency or worse); TriggerL0Miss fires on loads serviced
// beyond the L0 (≈10-cycle latency or worse), a strict superset.
type Trigger uint8

const (
	// TriggerNone disables the action.
	TriggerNone Trigger = iota
	// TriggerL0Miss fires on any load that misses the L0 cache.
	TriggerL0Miss
	// TriggerL1Miss fires on any load that misses the L1 cache.
	TriggerL1Miss
)

// String names the trigger.
func (tr Trigger) String() string {
	switch tr {
	case TriggerNone:
		return "none"
	case TriggerL0Miss:
		return "l0-miss"
	case TriggerL1Miss:
		return "l1-miss"
	default:
		return fmt.Sprintf("trigger(%d)", uint8(tr))
	}
}

// level returns the cache level whose miss fires the trigger.
func (tr Trigger) level() int {
	switch tr {
	case TriggerL0Miss:
		return cache.LevelL0
	case TriggerL1Miss:
		return cache.LevelL1
	default:
		return -1
	}
}

// Config parameterises the core. Zero values are invalid; start from
// DefaultConfig.
type Config struct {
	// FetchWidth is syllables fetched per cycle (two IA-64 bundles = 6).
	FetchWidth int
	// IssueWidth is the maximum instructions issued per cycle.
	IssueWidth int
	// IQSize is the number of instruction-queue entries (the paper: 64).
	IQSize int
	// FrontEndDepth is the fetch-to-IQ latency in cycles; it sets the
	// refill bubble after a squash or a branch redirect.
	FrontEndDepth int
	// BranchResolveLatency is cycles from a branch's issue to redirect.
	BranchResolveLatency int
	// ReplayWindow is how many cycles an issued entry lingers in the IQ
	// before eviction, in case it must be replayed; this residency is the
	// paper's Ex-ACE state (issued for the last time but not yet evicted).
	ReplayWindow int
	// ALULatency and FPLatency are execute latencies in cycles.
	ALULatency int
	FPLatency  int

	// StoreBufferSize is the number of store-buffer entries; committed
	// stores wait here before draining to the cache, and younger loads
	// forward from matching entries. A full buffer stalls store issue.
	StoreBufferSize int
	// StoreDrainLatency is the minimum cycles a store sits in the buffer
	// before it may drain (one drain per cycle).
	StoreDrainLatency int

	// OutOfOrder selects the out-of-order core family: issue skips past
	// stalled entries and picks any ready instruction (register-true
	// dataflow order), and the core grows the family's AVF-bearing
	// structures — a reorder buffer with in-order retire, a load/store
	// queue with store-to-load forwarding and drain-at-retire, and a
	// TAGE-class predictor table read on every control fetch. The paper's
	// machine is in-order; this family answers its §3.1 remark that the
	// squashing trade-off is "similar, though not as pronounced, for
	// out-of-order machines": stalled loads no longer block independent
	// work, so less state pools behind misses.
	OutOfOrder bool

	// ROBSize, RetireWidth and LSQSize dimension the out-of-order
	// family's reorder buffer (entries; retired in order, at most
	// RetireWidth per cycle) and load/store queue. TAGETables and
	// TAGETableBits dimension the TAGE predictor: TAGETables tagged
	// tables of 1<<TAGETableBits entries with geometrically growing
	// history lengths. All five are ignored by the in-order family;
	// zero values select the defaults Normalized fills in.
	ROBSize       int
	RetireWidth   int
	LSQSize       int
	TAGETables    int
	TAGETableBits int

	// SquashTrigger squashes all unissued IQ entries younger than a load
	// that misses at the trigger level, stalls fetch until the miss
	// returns, and refetches the squashed instructions (paper §3.1,
	// after Tullsen & Brown).
	SquashTrigger Trigger
	// RefetchOverlap is how many cycles before the triggering miss returns
	// that refetch restarts, hiding (part of) the front-end refill under
	// the miss shadow. FrontEndDepth means refetched instructions arrive
	// exactly as the miss data does; 0 means the refill is fully exposed
	// after the miss returns.
	RefetchOverlap int
	// ThrottleTrigger stalls fetch (without squashing) until the
	// triggering miss returns — the paper's second, less effective action.
	ThrottleTrigger Trigger
}

// FrontEndCap returns the fetch-buffer capacity implied by the front-end
// geometry: FetchWidth syllables per stage across FrontEndDepth stages,
// plus two cycles of skid.
func (c Config) FrontEndCap() int {
	return c.FetchWidth * (c.FrontEndDepth + 2)
}

// DefaultConfig returns the modelled Itanium®2-like core: 6-wide fetch and
// issue, 64-entry IQ, and a front end deep enough that its refill hides
// under an L1-miss shadow but not under an L0-miss shadow — the mechanism
// behind the paper's Table 1 trade-off.
func DefaultConfig() Config {
	return Config{
		FetchWidth:           6,
		IssueWidth:           6,
		IQSize:               64,
		FrontEndDepth:        8,
		BranchResolveLatency: 3,
		ReplayWindow:         3,
		ALULatency:           1,
		FPLatency:            4,
		StoreBufferSize:      16,
		StoreDrainLatency:    6,
		RefetchOverlap:       4,
		SquashTrigger:        TriggerNone,
		ThrottleTrigger:      TriggerNone,
	}
}

// Normalized returns the configuration with the out-of-order family's
// zero-valued structure dimensions replaced by their defaults: a 192-entry
// ROB retiring 8 per cycle, a 48-entry LSQ, and a 4-table TAGE predictor
// with 512-entry tables. In-order configurations pass through unchanged,
// so the in-order family's behaviour (and byte encoding) is untouched.
// The engines and the static analyzer normalize internally; callers only
// need this to learn which dimensions a run actually used.
func (c Config) Normalized() Config {
	if !c.OutOfOrder {
		return c
	}
	if c.ROBSize == 0 {
		c.ROBSize = 192
	}
	if c.RetireWidth == 0 {
		c.RetireWidth = 8
	}
	if c.LSQSize == 0 {
		c.LSQSize = 48
	}
	if c.TAGETables == 0 {
		c.TAGETables = 4
	}
	if c.TAGETableBits == 0 {
		c.TAGETableBits = 9
	}
	return c
}

// Validate reports a descriptive error for invalid configurations.
func (c *Config) Validate() error {
	pos := []struct {
		name string
		v    int
	}{
		{"FetchWidth", c.FetchWidth},
		{"IssueWidth", c.IssueWidth},
		{"IQSize", c.IQSize},
		{"FrontEndDepth", c.FrontEndDepth},
		{"BranchResolveLatency", c.BranchResolveLatency},
		{"ALULatency", c.ALULatency},
		{"FPLatency", c.FPLatency},
		{"StoreBufferSize", c.StoreBufferSize},
		{"StoreDrainLatency", c.StoreDrainLatency},
	}
	for _, f := range pos {
		if f.v < 1 {
			return fmt.Errorf("pipeline: %s = %d, want >= 1", f.name, f.v)
		}
	}
	if c.ReplayWindow < 0 {
		return fmt.Errorf("pipeline: ReplayWindow = %d, want >= 0", c.ReplayWindow)
	}
	if c.RefetchOverlap < 0 || c.RefetchOverlap > c.FrontEndDepth {
		return fmt.Errorf("pipeline: RefetchOverlap = %d, want in [0, FrontEndDepth]", c.RefetchOverlap)
	}
	if c.SquashTrigger > TriggerL1Miss {
		return fmt.Errorf("pipeline: invalid SquashTrigger %d", c.SquashTrigger)
	}
	if c.ThrottleTrigger > TriggerL1Miss {
		return fmt.Errorf("pipeline: invalid ThrottleTrigger %d", c.ThrottleTrigger)
	}
	ooo := []struct {
		name string
		v    int
	}{
		{"ROBSize", c.ROBSize},
		{"RetireWidth", c.RetireWidth},
		{"LSQSize", c.LSQSize},
		{"TAGETables", c.TAGETables},
		{"TAGETableBits", c.TAGETableBits},
	}
	for _, f := range ooo {
		if f.v < 0 {
			return fmt.Errorf("pipeline: %s = %d, want >= 0", f.name, f.v)
		}
	}
	if c.OutOfOrder {
		n := c.Normalized()
		if n.TAGETableBits > 12 {
			return fmt.Errorf("pipeline: TAGETableBits = %d, want <= 12", n.TAGETableBits)
		}
		// The folded global history must fit one uint64 word.
		if n.TAGETables*n.TAGETableBits > 48 {
			return fmt.Errorf("pipeline: TAGETables*TAGETableBits = %d, want <= 48",
				n.TAGETables*n.TAGETableBits)
		}
	}
	return nil
}
