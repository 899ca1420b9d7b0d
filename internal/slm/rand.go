package slm

// RNG is a small deterministic pseudo-random number generator
// (splitmix64). Every stochastic component in this repository takes an
// explicit *RNG so that all experiments are reproducible under a seed;
// the math/rand global source is never used.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two RNGs constructed
// with the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("slm: RNG.Intn called with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Fork derives an independent generator from the current stream. Forked
// generators let concurrent components share one seed without sharing
// mutable state.
func (r *RNG) Fork() *RNG {
	return &RNG{state: r.Uint64()}
}
