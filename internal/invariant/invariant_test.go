package invariant

import (
	"strings"
	"testing"

	"softerror/internal/rng"
)

// TestAllChecksHold runs every registered invariant over a handful of
// seeds at a small commit budget — the tier-1 slice of the audit. Broader
// seed sweeps run through cmd/seraudit (and the race tier runs it -quick).
func TestAllChecksHold(t *testing.T) {
	opt := Options{Commits: 2000, Workers: 2}
	for _, c := range All() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= 3; seed++ {
				if err := c.Run(seed, opt); err != nil {
					t.Errorf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// TestCheckNamesStable pins the registry: names are the CLI contract
// (-check filters, failure reports), so renames are breaking changes.
func TestCheckNamesStable(t *testing.T) {
	want := []string{
		"residency-conservation", "trace-differential", "stream-batch",
		"batched-independent", "arena-reuse", "parallel-determinism",
		"checkpoint-resume", "fault-partition", "pi-bit-safety",
		"chipplan-monotonicity",
		"fingerprint-injectivity", "cache-concurrency", "job-lifecycle",
		"fleet-identity", "static-bounds",
	}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("registry has %d checks, want %d", len(got), len(want))
	}
	for i, c := range got {
		if c.Name != want[i] {
			t.Errorf("check %d named %q, want %q", i, c.Name, want[i])
		}
		if c.Doc == "" || c.Run == nil {
			t.Errorf("check %q lacks a doc line or a runner", c.Name)
		}
		if strings.ToLower(c.Name) != c.Name || strings.ContainsAny(c.Name, " _") {
			t.Errorf("check name %q is not kebab-case", c.Name)
		}
	}
	if _, err := Find("trace-differential"); err != nil {
		t.Error(err)
	}
	if _, err := Find("no-such-check"); err == nil {
		t.Error("Find accepted an unknown name")
	}
}

// TestGeneratorsAreSeedDeterministic: the whole audit scheme rests on a
// reported seed reproducing the failing configuration exactly.
func TestGeneratorsAreSeedDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		a := newDraw(seed)
		b := newDraw(seed)
		if a != b {
			t.Fatalf("seed %d drew different configurations across runs", seed)
		}
	}
}

type draw struct {
	loadFrac float64
	iqSize   int
	ooo      bool
}

func newDraw(seed uint64) draw {
	s := rng.New(seed, 0xD4A3)
	p := RandomWorkload(s)
	cfg := RandomPipelineConfig(s)
	return draw{loadFrac: p.LoadFrac, iqSize: cfg.IQSize, ooo: cfg.OutOfOrder}
}
