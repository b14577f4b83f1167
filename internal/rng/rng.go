// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the simulator.
//
// Every stochastic component of the simulator (workload synthesis, fault
// injection, cache address streams) draws from an explicitly seeded Stream
// so that experiments are bit-for-bit reproducible across runs and across
// machines. The package deliberately avoids math/rand's global state.
//
// The core generator is PCG32 (O'Neill, 2014): a 64-bit linear congruential
// state with a 32-bit permuted output, which has excellent statistical
// quality for its size and supports cheap independent sequences via the
// stream-increment parameter. Seeds are pre-mixed with SplitMix64 so that
// small or correlated user seeds still produce well-separated states.
package rng

import "math/bits"

// splitMix64 advances a SplitMix64 state and returns the next mixed value.
// It is used only for seed expansion.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream is a deterministic PCG32 pseudo-random stream. The zero value is
// not useful; construct Streams with New, Make or Derive.
type Stream struct {
	state uint64
	inc   uint64 // must be odd
}

// New returns a Stream seeded from seed and sequence. Distinct sequence
// values yield statistically independent streams even for equal seeds.
func New(seed, sequence uint64) *Stream {
	s := Make(seed, sequence)
	return &s
}

// Make is New returning the Stream by value, for hot loops that keep a
// short-lived stream on the stack.
func Make(seed, sequence uint64) Stream {
	mix := seed
	s := Stream{
		inc: (splitMix64(&mix)^sequence)<<1 | 1,
	}
	s.state = splitMix64(&mix)
	s.Uint32() // advance away from the all-zeros corner
	return s
}

// Derive returns a new independent Stream keyed by label. It is the
// preferred way to give each simulator component its own stream from a
// single experiment seed: the parent stream is not perturbed.
func (s *Stream) Derive(label string) *Stream {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return New(s.state^h, s.inc^(h>>1))
}

// pcg advances a PCG32 state by one step and returns the new state and the
// 32-bit output of the old one. Kernels that draw in a loop run it on a
// state held in locals and store it back once.
func pcg(old, inc uint64) (uint64, uint32) {
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return old*6364136223846793005 + inc, bits.RotateLeft32(xorshifted, -int(rot))
}

// Uint32 returns the next 32 random bits.
func (s *Stream) Uint32() uint32 {
	var out uint32
	s.state, out = pcg(s.state, s.inc)
	return out
}

// Uint64 returns the next 64 random bits: two Uint32 draws, high word
// first.
func (s *Stream) Uint64() uint64 {
	state, hi := pcg(s.state, s.inc)
	state, lo := pcg(state, s.inc)
	s.state = state
	return uint64(hi)<<32 | uint64(lo)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// The implementation uses Lemire's multiply-shift rejection method,
// which is unbiased.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	bound := uint32(n)
	threshold := -bound % bound
	for {
		r := s.Uint32()
		m := uint64(r) * uint64(bound)
		if uint32(m) >= threshold {
			return int(m >> 32)
		}
	}
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (s *Stream) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n called with non-positive n")
	}
	max := uint64(n)
	// Rejection sampling over the smallest power-of-two envelope.
	mask := uint64(1)
	for mask < max {
		mask <<= 1
	}
	mask--
	for {
		v := s.Uint64() & mask
		if v < max {
			return int64(v)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// threshold53 returns ceil(p·2^53) for p in (0, 1), and 0 for NaN. A
// draw's top 53 bits x satisfy Float64() < p exactly when x < threshold53(p):
// Float64 is x/2^53, scaling both sides by 2^53 is exact, and x is an
// integer.
func threshold53(p float64) uint64 {
	if !(p > 0) {
		return 0
	}
	scaled := p * (1 << 53)
	t := uint64(scaled)
	if float64(t) < scaled {
		t++
	}
	return t
}

// Bool returns true with probability p (clamped to [0, 1]): it returns
// Float64() < p, compared with both sides scaled by 2^53 (exact), and
// draws one Uint64 unless p is outside (0, 1).
func (s *Stream) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(s.Uint64()>>11) < p*(1<<53)
}

// Geometric returns a sample from a geometric distribution with success
// probability p: the number of failures before the first success, so the
// mean is (1-p)/p. Useful for synthesising run lengths. p must be in (0,1].
// It draws exactly what a loop of Bool(p) trials draws, on a state held in
// locals.
func (s *Stream) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric requires p in (0,1]")
	}
	if p == 1 {
		return 0 // Bool(1) succeeds without a draw
	}
	thr := threshold53(p)
	state, inc := s.state, s.inc
	n := 0
	for {
		var hi, lo uint32
		state, hi = pcg(state, inc)
		state, lo = pcg(state, inc)
		if (uint64(hi)<<32|uint64(lo))>>11 < thr {
			break
		}
		n++
		if n >= 1<<20 { // statistically unreachable guard
			break
		}
	}
	s.state = state
	return n
}

// Perm returns a random permutation of [0, n) using Fisher-Yates.
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Pick returns a uniformly random element index weighted by weights.
// The weights need not be normalised; non-positive weights are treated as
// zero. If all weights are zero, Pick returns 0.
func (s *Stream) Pick(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	target := s.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if target < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Picker is Pick for a fixed weight table: the running sums Pick builds on
// every call are built once. Picker.Pick(s) returns what s.Pick(weights)
// returns and leaves s in the same state.
type Picker struct {
	cum   []float64 // running sum after each positive weight
	idx   []int     // index of each positive weight
	total float64
	last  int // len(weights) - 1, Pick's fall-through result
}

// NewPicker precomputes Pick's running sums over weights, which it copies.
func NewPicker(weights []float64) Picker {
	p := Picker{last: len(weights) - 1}
	for i, w := range weights {
		if w > 0 {
			p.total += w
			p.cum = append(p.cum, p.total)
			p.idx = append(p.idx, i)
		}
	}
	return p
}

// Pick draws an index from the picker's weights.
func (p *Picker) Pick(s *Stream) int {
	if p.total <= 0 {
		return 0
	}
	target := s.Float64() * p.total
	for k, c := range p.cum {
		if target < c {
			return p.idx[k]
		}
	}
	return p.last
}
