package stat

import "math/rand"

// RNG is a deterministic random source with cheap derivation of independent
// child streams. Every stochastic component in the repository (trace
// generation, corruption injection, ASD initialization fallbacks) draws from
// an RNG derived from the experiment seed, so a run is reproducible from a
// single integer.
type RNG struct {
	r *rand.Rand
	// seed retained so children can be derived deterministically.
	seed int64
}

// NewRNG returns a deterministic source for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed)), seed: seed}
}

// Child derives an independent stream labelled by name. The derivation uses
// an FNV-1a hash of the label mixed with the parent seed, so adding a new
// consumer never perturbs the streams of existing ones.
func (g *RNG) Child(name string) *RNG {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	h ^= uint64(g.seed)
	h *= prime64
	return NewRNG(int64(h))
}

// NormFloat64 returns a standard normal value.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Intn returns a uniform value in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative 63-bit value.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Uniform returns a uniform value in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Sign returns +1 or -1 with equal probability.
func (g *RNG) Sign() float64 {
	if g.r.Intn(2) == 0 {
		return 1
	}
	return -1
}

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }
