package workload

import (
	"sync"

	"softerror/internal/cache"
)

// warmTemplate memoises one warmed default hierarchy per process. The warm
// sweep in WarmCaches is a fixed address sequence independent of the
// workload, so every run over the default hierarchy reaches the same warmed
// state. The template is frozen once warmed: nothing probes it again, so
// any number of concurrent simulations can read it through copy-on-touch
// views (cache.Hierarchy.ViewInto) instead of each redoing the sweep or
// copying the whole hierarchy.
var (
	warmOnce     sync.Once
	warmSnapshot *cache.Hierarchy
)

// WarmedDefault returns a freshly cloned default hierarchy in the warmed
// steady state — equivalent to NewHierarchy(DefaultHierarchy()) followed by
// WarmCaches, but paying for the warm sweep only once per process. Each call
// returns an independent deep copy, safe to hand to a concurrent simulation.
func WarmedDefault() *cache.Hierarchy {
	return warmed().Clone()
}

// WarmedInto returns a copy-on-touch view of the frozen warm template,
// re-viewing dst when it is a hierarchy of the default shape: the arena
// path hands back pooled hierarchies from finished simulations and
// receives them warmed again, resetting only the sets they touched. A view
// owns only the sets its simulation probes (a few hundred of the L2's
// 8,192 over a 100k-commit run), and behaves bit-identically to
// WarmedDefault's deep copy. A nil or incompatible dst yields a fresh view.
func WarmedInto(dst *cache.Hierarchy) *cache.Hierarchy {
	return warmed().ViewInto(dst)
}

func warmed() *cache.Hierarchy {
	warmOnce.Do(func() {
		warmSnapshot = cache.MustNewDefault()
		WarmCaches(warmSnapshot)
	})
	return warmSnapshot
}
