// Package invariant is the property/metamorphic audit layer over the
// simulation and serving stack. Every number the reproduction reports rests
// on a handful of structural properties — AVF is a residency integral, so
// residency conservation *is* correctness; the fast path, the streaming
// collector, the parallel engine and the checkpoint machinery are all
// claimed to be exact equivalences, not approximations. This package turns
// each claim into a Check: a seeded, self-contained property test over
// *randomised* configurations, usable from unit tests, fuzz harnesses and
// the cmd/seraudit driver alike.
//
// Every Check is deterministic in its seed: a failure reported by seraudit
// as "FAIL <name> seed=N" reproduces with the same seed from a test (see
// README "Auditing"). Checks return errors rather than panicking, so a
// driver can run the full suite and report every violation.
package invariant

import "fmt"

// Options tunes how expensive each Check's run is. The zero value audits
// at a laptop-friendly scale.
type Options struct {
	// Commits is the per-simulation commit budget (default 3000): long
	// enough for queues to fill, squash paths to fire and the AVF
	// integrals to accumulate structure, short enough to audit many seeds.
	Commits uint64
	// Workers is the fan-out used by the parallel-determinism checks
	// (default 4). The identity under audit is "-j 1 ≡ -j N", so this is
	// the N.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Commits == 0 {
		o.Commits = 3000
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	return o
}

// Check is one auditable property. Run executes the property at the given
// seed and returns nil when it holds. Distinct seeds draw distinct
// configurations/workloads/request mixes, so sweeping seeds sweeps the
// input space.
type Check struct {
	// Name is the stable identifier used by seraudit's -check filter and
	// failure reports.
	Name string
	// Doc is the one-line statement of the property.
	Doc string
	// Run executes the property once.
	Run func(seed uint64, opt Options) error
}

// All returns every registered check, in stable order: the simulation-layer
// properties first (they underpin everything else), then the campaign-layer
// equivalences, then the serving-layer contracts.
func All() []Check {
	return []Check{
		{
			Name: "residency-conservation",
			Doc:  "per-structure occupancy sums fit cycles×entries and the bit-cycle classes partition capacity exactly",
			Run:  checkResidencyConservation,
		},
		{
			Name: "trace-differential",
			Doc:  "the lane engine (over a private fetch-order source) and the single-step reference interpreter produce identical traces on random configurations",
			Run:  checkTraceDifferential,
		},
		{
			Name: "stream-batch",
			Doc:  "a one-lane run's recorded trace equals the reference interpreter's, and its streamed reports (regfile included) equal trace analysis exactly",
			Run:  checkStreamBatch,
		},
		{
			Name: "batched-independent",
			Doc:  "batched K-config evaluation equals K independent reference-interpreter runs analysed from their traces, reports byte-identical",
			Run:  checkBatchedIndependent,
		},
		{
			Name: "arena-reuse",
			Doc:  "evaluation on a dirtied arena or shared arena pool is bit-identical to fresh-state runs, retained Results survive reuse, and two concurrent runs of one workload agree on its kept stream and a private copy",
			Run:  checkArenaReuse,
		},
		{
			Name: "parallel-determinism",
			Doc:  "a random sweep grid renders byte-identical CSV at -j 1 and -j N",
			Run:  checkParallelDeterminism,
		},
		{
			Name: "checkpoint-resume",
			Doc:  "a grid cancelled mid-run and resumed from its checkpoint renders bytes identical to an uninterrupted run",
			Run:  checkCheckpointResume,
		},
		{
			Name: "fault-partition",
			Doc:  "strike tallies from arbitrary shuffled partitions of the strike space merge exactly to the single-range campaign's",
			Run:  checkFaultPartition,
		},
		{
			Name: "pi-bit-safety",
			Doc:  "no π-bit tracking configuration — any level, PET size or window — suppresses an outcome-changing error",
			Run:  checkPiBitSafety,
		},
		{
			Name: "chipplan-monotonicity",
			Doc:  "chip budget arithmetic decomposes per-structure, protection upgrades are cost/SDC-monotone, and Plan matches a brute-force oracle",
			Run:  checkChipPlan,
		},
		{
			Name: "fingerprint-injectivity",
			Doc:  "distinct normalised eval requests never share a content address; spelled-out defaults share one with the implicit form",
			Run:  checkFingerprintInjectivity,
		},
		{
			Name: "cache-concurrency",
			Doc:  "concurrent mixed hit/miss eval load returns byte-identical bodies per request spec",
			Run:  checkCacheConcurrency,
		},
		{
			Name: "job-lifecycle",
			Doc:  "job event streams are dense in Seq, monotonic in done, terminal exactly once and replay identically",
			Run:  checkJobLifecycle,
		},
		{
			Name: "fleet-identity",
			Doc:  "a grid run locally, on a one-worker fleet, and on a chaos-injected three-worker fleet renders byte-identical CSV",
			Run:  checkFleetIdentity,
		},
		{
			Name: "static-bounds",
			Doc:  "static per-structure and per-bit-class AVF bounds dominate simulated AVF, and /v1/bound serves byte-deterministically with zero cycles simulated",
			Run:  checkStaticBounds,
		},
	}
}

// Find returns the check with the given name.
func Find(name string) (Check, error) {
	for _, c := range All() {
		if c.Name == name {
			return c, nil
		}
	}
	return Check{}, fmt.Errorf("invariant: unknown check %q", name)
}
