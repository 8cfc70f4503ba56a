// Package dist provides deterministic pseudo-random number generation and
// the probability distributions used throughout the sprinting simulators:
// exponential, Pareto (plain and truncated), deterministic, uniform,
// log-normal, Erlang, hyperexponential, empirical, scripted sequences and
// scaled variants of any of them.
//
// Everything in this package is seeded explicitly. Simulation experiments
// must be reproducible run-to-run, so no global RNG state is used anywhere
// in this repository.
package dist

import "math"

// RNG is a small, fast, deterministic pseudo-random generator based on
// splitmix64 feeding an xoshiro256** core. It is not safe for concurrent
// use; give each goroutine its own RNG (see Split).
type RNG struct {
	s [4]uint64
	// cached spare normal variate for NormFloat64 (Box-Muller pairs).
	haveSpare bool
	spare     float64
}

// splitmix64 advances a 64-bit state and returns the next output value.
// It is used only to expand a user seed into the xoshiro state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from seed. Two RNGs built from the same
// seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed reinitializes r in place from seed, discarding all prior state
// (including the cached Box-Muller spare). A reseeded generator produces
// exactly the stream NewRNG(seed) would, so reusable simulator runners can
// replay replications without allocating a fresh RNG per run.
func (r *RNG) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	r.haveSpare = false
	r.spare = 0
}

// Split derives an independent generator from r. The child stream is a
// deterministic function of r's current state, so a parent seeded the same
// way always yields the same children in the same order.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xd1342543de82ef95)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform value in (0, 1), never exactly zero. Several
// inverse-CDF transforms (exponential, Pareto) need a strictly positive
// uniform variate.
func (r *RNG) Float64Open() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("dist: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling, simplified: the modulo
	// bias for n << 2^64 is negligible for simulation purposes, but we keep
	// the rejection loop to stay exact.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// ExpFloat64 returns an exponential variate with mean 1.
func (r *RNG) ExpFloat64() float64 {
	return -math.Log(r.Float64Open())
}

// NormFloat64 returns a standard normal variate (Box-Muller transform).
func (r *RNG) NormFloat64() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	u1 := r.Float64Open()
	u2 := r.Float64()
	mag := math.Sqrt(-2 * math.Log(u1))
	r.spare = mag * math.Sin(2*math.Pi*u2)
	r.haveSpare = true
	return mag * math.Cos(2*math.Pi*u2)
}

// Shuffle randomly permutes the first n elements using swap, mirroring
// math/rand.Shuffle.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
