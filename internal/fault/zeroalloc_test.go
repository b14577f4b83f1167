package fault

import (
	"testing"

	"softerror/internal/ace"
	"softerror/internal/cache"
)

// TestStrikeZeroAlloc pins the strike loop at zero heap allocations per
// strike on a warmed injector, for the unprotected queue and for parity at
// every tracking level: the strike's RNG stream, the PET scan and the
// dataflow replay's π state all stay on the stack.
func TestStrikeZeroAlloc(t *testing.T) {
	tr, dead, _ := setup(t)
	inj := NewInjector(tr, dead)
	cfgs := []Config{{Protection: cache.ProtNone}}
	for lvl := ace.TrackNever; lvl <= ace.TrackMemory; lvl++ {
		cfgs = append(cfgs, Config{Protection: cache.ProtParity, Level: lvl})
	}
	for _, cfg := range cfgs {
		cfg.Strikes, cfg.Seed = 2000, 31
		engine := cfg.engine()
		run := func() {
			for i := 0; i < cfg.Strikes; i++ {
				s := strikeStream(cfg.Seed, i)
				inj.strike(&s, cfg, engine)
			}
		}
		if avg := testing.AllocsPerRun(3, run); avg != 0 {
			t.Errorf("%v at level %v: %v allocations per %d strikes, want 0",
				cfg.Protection, cfg.Level, avg, cfg.Strikes)
		}
	}
}
