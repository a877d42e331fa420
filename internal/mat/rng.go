package mat

import "math/rand"

// RNG is the deterministic random source used throughout the repository.
// It wraps math/rand so that every experiment is reproducible from a
// single seed; the wrapper exists so callers never touch the global
// math/rand state.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// NormFloat64 returns a standard normal sample.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Intn returns a uniform int in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative 63-bit random integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Geometric samples from a geometric distribution with continuation
// probability p (result >= 1): the number of trials until first failure.
func (g *RNG) Geometric(p float64) int {
	n := 1
	for g.Float64() < p {
		n++
	}
	return n
}

// Categorical samples an index proportionally to the non-negative
// weights. It panics if weights sum to zero or is empty.
func (g *RNG) Categorical(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 || len(weights) == 0 {
		panic("mat: Categorical requires positive total weight")
	}
	u := g.Float64() * total
	for i, w := range weights {
		u -= w
		if u < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Fork derives an independent deterministic stream from this one.
// Useful to give each utterance or layer its own stream so that changing
// one component does not perturb the random numbers of another.
func (g *RNG) Fork() *RNG { return NewRNG(g.Int63()) }

// FillNorm fills dst with N(mu, sigma) samples.
func (g *RNG) FillNorm(dst []float64, mu, sigma float64) {
	for i := range dst {
		dst[i] = mu + sigma*g.NormFloat64()
	}
}
