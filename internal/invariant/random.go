package invariant

import (
	"softerror/internal/pipeline"
	"softerror/internal/rng"
	"softerror/internal/workload"
)

// RandomWorkload draws a valid workload profile from across the parameter
// space, including corners the Table-2 roster never visits: near-total
// dead code, saturated mispredict rates, degenerate cache mixes, and
// PC-indexed branch predictors, whose streams every lane fetches privately.
// The draw consumes a fixed number of stream values, so a seed pins the
// profile.
func RandomWorkload(s *rng.Stream) workload.Params {
	p := workload.Default()
	p.Seed = s.Uint64()
	// The predictor derives from the seed already drawn, consuming no
	// stream value, so every other per-seed draw stays where it was: about
	// a quarter of profiles get gshare and a quarter bimodal.
	switch p.Seed % 4 {
	case 0:
		p.BranchPredictor = "gshare"
	case 1:
		p.BranchPredictor = "bimodal"
	}
	p.LoadFrac = 0.05 + 0.2*s.Float64()
	p.StoreFrac = 0.02 + 0.1*s.Float64()
	p.FPFrac = 0.15 * s.Float64()
	p.NopFrac = 0.35 * s.Float64()
	p.PrefetchFrac = 0.05 * s.Float64()
	p.MispredictRate = 0.15 * s.Float64()
	p.CallFrac = 0.03 * s.Float64()
	p.PredicatedFrac = 0.3 * s.Float64()
	p.PredFalseProb = s.Float64()
	p.FDDRegFrac = 0.06 * s.Float64()
	p.TDDRegFrac = 0.04 * s.Float64()
	p.FDDMemFrac = 0.03 * s.Float64()
	p.DeadLocalFrac = s.Float64()
	p.MissBurstiness = s.Float64()
	p.L0Frac = 0.9 + 0.09*s.Float64()
	rest := 1 - p.L0Frac
	p.L1Frac = rest * 0.6
	p.L2Frac = rest * 0.3
	p.MemFrac = rest * 0.1
	p.FetchBubbleProb = 0.5 * s.Float64()
	p.FetchBubbleMean = 1 + s.Intn(8)
	p.MeanBlockLen = 3 + s.Intn(15)
	p.MeanCalleeLen = 10 + s.Intn(150)
	p.DepDistance = 1 + s.Intn(12)
	p.LoadUseDistance = s.Intn(25)
	// Independent draws can push the instruction mix past 1 (seraudit's
	// seed sweep found seeds doing exactly that); rescale the mix terms
	// proportionally so every seed yields a valid profile.
	mix := p.LoadFrac + p.StoreFrac + p.FPFrac + p.IOFrac + p.NopFrac +
		p.PrefetchFrac + p.HintFrac + p.BranchFrac + p.CallFrac +
		p.FDDRegFrac + p.TDDRegFrac + p.FDDMemFrac
	if mix > 0.98 {
		k := 0.98 / mix
		p.LoadFrac *= k
		p.StoreFrac *= k
		p.FPFrac *= k
		p.IOFrac *= k
		p.NopFrac *= k
		p.PrefetchFrac *= k
		p.HintFrac *= k
		p.BranchFrac *= k
		p.CallFrac *= k
		p.FDDRegFrac *= k
		p.TDDRegFrac *= k
		p.FDDMemFrac *= k
	}
	return p
}

// RandomPipelineConfig draws a valid machine configuration spanning
// in-order/out-of-order issue, every squash/throttle trigger combination,
// and queue geometries from tiny to generous.
func RandomPipelineConfig(s *rng.Stream) pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.FetchWidth = 1 + s.Intn(8)
	cfg.IssueWidth = 1 + s.Intn(8)
	cfg.IQSize = 8 << s.Intn(5) // 8..128
	cfg.FrontEndDepth = 1 + s.Intn(12)
	cfg.BranchResolveLatency = 1 + s.Intn(6)
	cfg.ReplayWindow = s.Intn(10)
	cfg.StoreBufferSize = 2 + s.Intn(30)
	cfg.StoreDrainLatency = 1 + s.Intn(12)
	cfg.RefetchOverlap = s.Intn(cfg.FrontEndDepth + 1)
	cfg.SquashTrigger = pipeline.Trigger(s.Intn(3))
	cfg.ThrottleTrigger = pipeline.Trigger(s.Intn(3))
	cfg.OutOfOrder = s.Bool(0.3)
	// Out-of-order family dimensions, always drawn so every seed consumes a
	// fixed number of stream values (the in-order family ignores them).
	// The TAGE draw stays inside Validate's folded-history word limit
	// (tables*bits <= 48, bits <= 12).
	cfg.ROBSize = 16 << s.Intn(5) // 16..256
	cfg.RetireWidth = 1 + s.Intn(8)
	cfg.LSQSize = 4 << s.Intn(4) // 4..32
	cfg.TAGETables = 1 + s.Intn(5)
	cfg.TAGETableBits = 5 + s.Intn(5)
	return cfg
}
