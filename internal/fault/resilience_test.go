package fault

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"softerror/internal/ace"
	"softerror/internal/cache"
	"softerror/internal/checkpoint"
	"softerror/internal/par"
)

// TestStrikeOutcomeIsolation pins the per-strike RNG stream contract: a
// single strike index replayed in isolation reproduces exactly its outcome
// within the full campaign, so any subset of the strike space (a resumed
// chunk, a debugging session on one strike) is faithful.
func TestStrikeOutcomeIsolation(t *testing.T) {
	tr, dead, _ := setup(t)
	inj := NewInjector(tr, dead)
	cfg := Config{Protection: cache.ProtParity, Level: ace.TrackCommit, Strikes: 400, Seed: 7}
	full, err := inj.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var replay Result
	for i := 0; i < cfg.Strikes; i++ {
		replay.Counts[inj.StrikeOutcome(cfg, i)]++
		replay.Strikes++
	}
	if replay.Counts != full.Counts {
		t.Fatalf("strike-by-strike replay %v != full campaign %v", replay.Counts, full.Counts)
	}
}

// TestRunRangePartitionIdentity checks that any partition of the strike
// space merges to the full campaign's exact tallies — the property chunked
// checkpointing rests on.
func TestRunRangePartitionIdentity(t *testing.T) {
	tr, dead, _ := setup(t)
	inj := NewInjector(tr, dead)
	cfg := Config{Protection: cache.ProtNone, Strikes: 1000, Seed: 3}
	full, err := inj.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	merged := &Result{}
	for _, cut := range [][2]int{{0, 137}, {137, 700}, {700, 1000}} {
		part, err := inj.RunRange(ctx, cfg, cut[0], cut[1])
		if err != nil {
			t.Fatal(err)
		}
		merged.Merge(part)
	}
	if merged.Counts != full.Counts || merged.Strikes != full.Strikes {
		t.Fatalf("partitioned run %v != full run %v", merged.Counts, full.Counts)
	}
}

func TestCampaignMatchesDirectRuns(t *testing.T) {
	tr, dead, _ := setup(t)
	inj := NewInjector(tr, dead)
	cfgs := []Config{
		{Protection: cache.ProtNone, Strikes: 300, Seed: 5},
		{Protection: cache.ProtParity, Level: ace.TrackStoreBuffer, Strikes: 300, Seed: 5},
	}
	camp := &Campaign{Injector: inj, Configs: cfgs, Chunk: 97}
	got, err := camp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		want, err := inj.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Counts != want.Counts {
			t.Errorf("config %d: campaign %v != direct run %v", i, got[i].Counts, want.Counts)
		}
	}
}

// TestCampaignCrashResumeByteIdentical is the acceptance scenario: a chaos
// hook kills the campaign partway through, the checkpoint preserves the
// completed cells, and a resumed run produces tallies identical to a run
// that was never interrupted.
func TestCampaignCrashResumeByteIdentical(t *testing.T) {
	tr, dead, _ := setup(t)
	inj := NewInjector(tr, dead)
	cfgs := []Config{
		{Protection: cache.ProtNone, Strikes: 500, Seed: 11},
		{Protection: cache.ProtParity, Level: ace.TrackMemory, Strikes: 500, Seed: 11},
	}
	newCamp := func() *Campaign {
		return &Campaign{Injector: inj, Configs: cfgs, Chunk: 100, Opts: par.Options{Workers: 2}}
	}

	straight, err := newCamp().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	camp := newCamp()
	fp := camp.Fingerprint()
	ck, err := checkpoint.Open[Result](path, "fault-test", fp, camp.Cells(), false)
	if err != nil {
		t.Fatal(err)
	}
	ck.SetInterval(1)
	camp.Checkpoint = ck

	// Crash the process-under-test once it reaches cell 3.
	par.SetChaos(func(_ context.Context, index int) error {
		if index >= 3 {
			panic(fmt.Sprintf("chaos: simulated crash in cell %d", index))
		}
		return nil
	})
	if _, err := camp.Run(context.Background()); err == nil {
		par.SetChaos(nil)
		t.Fatal("chaos-crashed campaign reported success")
	}
	par.SetChaos(nil)

	resumed, err := checkpoint.Open[Result](path, "fault-test", fp, camp.Cells(), true)
	if err != nil {
		t.Fatal(err)
	}
	if n := resumed.CountDone(); n == 0 || n == camp.Cells() {
		t.Fatalf("checkpoint holds %d/%d cells; the crash should leave a strict partial", n, camp.Cells())
	}
	camp2 := newCamp()
	camp2.Checkpoint = resumed
	got, err := camp2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if got[i].Counts != straight[i].Counts || got[i].Strikes != straight[i].Strikes {
			t.Errorf("config %d: resumed %v != straight-through %v", i, got[i].Counts, straight[i].Counts)
		}
	}
}

func TestCampaignRejectsMismatchedCheckpoint(t *testing.T) {
	tr, dead, _ := setup(t)
	inj := NewInjector(tr, dead)
	camp := &Campaign{
		Injector: inj,
		Configs:  []Config{{Protection: cache.ProtNone, Strikes: 100, Seed: 1}},
		Chunk:    50,
		Checkpoint: checkpoint.New[Result](
			filepath.Join(t.TempDir(), "x.ckpt"), "k", "fp", 99),
	}
	if _, err := camp.Run(context.Background()); err == nil {
		t.Fatal("campaign accepted a checkpoint with the wrong cell count")
	}
}
