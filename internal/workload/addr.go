package workload

import (
	"softerror/internal/cache"
	"softerror/internal/rng"
)

// Working-set regions. Region sizes are chosen relative to the modelled
// hierarchy (8KB L0, 256KB L1, 10MB L2) so that, after warm-up, an access
// routed to a region hits at the intended level:
//
//	hot   4KB    resident in L0
//	warm  128KB  too big for L0, resident in L1
//	big   4MB    too big for L1, resident in L2
//	huge  1GB    misses the whole hierarchy
//
// A separate small write-only ring provides dead-store addresses, and a
// distant region provides wrong-path (speculative, garbage) addresses.
const (
	hotBase  = 0x0001_0000
	hotSize  = 4 << 10
	warmBase = 0x0100_0000
	warmSize = 128 << 10
	bigBase  = 0x1000_0000
	bigSize  = 4 << 20
	hugeBase = 0x4000_0000
	hugeSize = 1 << 30

	deadBase = 0x0002_0000
	deadSize = 1 << 10

	wrongBase = 0x7000_0000
	wrongSize = 1 << 28

	ioBase = 0xF000_0000
	ioSize = 1 << 12

	accessAlign = 8
)

// addrStream draws data addresses according to the workload's working-set
// mix. Within the hot and warm regions accesses are uniform; within the big
// and huge regions they alternate between striding (streaming array sweeps,
// common in FP codes) and uniform picks.
type addrStream struct {
	s       *rng.Stream
	regions rng.Picker // hot, warm, big, huge

	stridePtr  uint64
	deadPtr    uint64
	strideBias float64

	// Markov state for miss clustering: real miss streams are bursty (a
	// new data block brings several misses together). region is the last
	// region picked; persist is the probability the next access stays in
	// a non-hot region.
	region  int
	persist float64
}

func newAddrStream(p *Params, s *rng.Stream) addrStream {
	strideBias := 0.3
	if p.FloatingPoint {
		strideBias = 0.7 // FP codes stream through arrays
	}
	return addrStream{
		s:          s,
		regions:    rng.NewPicker([]float64{p.L0Frac, p.L1Frac, p.L2Frac, p.MemFrac}),
		stridePtr:  bigBase,
		deadPtr:    deadBase,
		strideBias: strideBias,
		persist:    p.MissBurstiness,
	}
}

func align(a uint64) uint64 { return a &^ (accessAlign - 1) }

// data returns the next data-access address.
func (a *addrStream) data() uint64 {
	// Bursty region selection: once off the hot region, stay there with
	// probability persist, clustering the resulting cache misses.
	if a.region == 0 || !a.s.Bool(a.persist) {
		a.region = a.regions.Pick(a.s)
	}
	switch a.region {
	case 0:
		return align(hotBase + uint64(a.s.Intn(hotSize)))
	case 1:
		return align(warmBase + uint64(a.s.Intn(warmSize)))
	case 2:
		if a.s.Bool(a.strideBias) {
			a.stridePtr += 64
			if a.stridePtr >= bigBase+bigSize {
				a.stridePtr = bigBase
			}
			return align(a.stridePtr)
		}
		return align(bigBase + uint64(a.s.Intn(bigSize)))
	default:
		return align(hugeBase + uint64(a.s.Int63n(hugeSize)))
	}
}

// deadStore returns the next address in the write-only ring. The ring is
// tiny, so every slot is overwritten long before the trace ends, proving
// the stores dead; and it stays L0-resident, so dead stores do not perturb
// the miss behaviour that squash triggers depend on.
func (a *addrStream) deadStore() uint64 {
	addr := a.deadPtr
	a.deadPtr += accessAlign
	if a.deadPtr >= deadBase+deadSize {
		a.deadPtr = deadBase
	}
	return addr
}

// WarmCaches brings the hierarchy to the steady state a long-running
// SimPoint slice would have reached: the big region resident in L2, the
// warm region in L1, and the hot region (plus the dead-store ring) in L0.
// The paper measures 100M-instruction slices after skipping billions of
// instructions; sweeping the working-set regions reproduces that warmth
// without simulating the skip.
func WarmCaches(h *cache.Hierarchy) {
	sweep := func(base, size uint64) {
		for a := base; a < base+size; a += 64 {
			h.Access(a, false)
		}
	}
	sweep(bigBase, bigSize)
	sweep(warmBase, warmSize)
	sweep(deadBase, deadSize)
	sweep(hotBase, hotSize)
	// A second hot pass fixes LRU recency in the innermost level.
	sweep(hotBase, hotSize)
}
