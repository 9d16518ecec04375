// Package rngutil wraps math/rand with the small set of deterministic
// sampling helpers used by workload generation and the allocation
// heuristics. Every experiment in this repository is seeded, so identical
// invocations reproduce identical tasksets, cluster permutations and
// therefore identical figures.
package rngutil

import (
	"math/rand"
)

// RNG is a deterministic random source. The zero value is not usable; call
// New.
//
// The stream is that of rand.New(rand.NewSource(seed)), draw for draw, but
// an RNG seeds on demand (see source): it computes each register word it
// reads from the seed, and builds the 607-word register only at its 274th
// draw. One that is never drawn from (the sweep builds one per solution
// per taskset, and Baseline and Evenly-partition never draw) costs no
// seeding at all, and one drawn a few times costs a few multiplications.
type RNG struct {
	s source
	r *rand.Rand // nil until the first draw
}

// New returns an RNG seeded with seed.
func New(seed int64) *RNG {
	g := &RNG{}
	g.s.Seed(seed)
	return g
}

// src returns the rand.Rand over g's source, making it on first use.
func (g *RNG) src() *rand.Rand {
	if g.r == nil {
		g.r = rand.New(&g.s)
	}
	return g.r
}

// Uniform returns a sample from the uniform distribution on [lo, hi).
// It panics if hi < lo.
func (g *RNG) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic("rngutil: Uniform with hi < lo")
	}
	if hi == lo { //vc2m:floateq exact empty-interval guard
		return lo
	}
	// The conversion rounds the product, so no architecture fuses it
	// into the sum.
	return lo + float64(g.src().Float64()*(hi-lo))
}

// Bimodal returns a sample drawn uniformly from [lo1, hi1) with probability
// pLight and uniformly from [lo2, hi2) otherwise. The schedulability
// experiments use it for the bimodal light/medium/heavy utilization
// distributions.
func (g *RNG) Bimodal(lo1, hi1, lo2, hi2, pLight float64) float64 {
	if g.src().Float64() < pLight {
		return g.Uniform(lo1, hi1)
	}
	return g.Uniform(lo2, hi2)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int {
	return g.src().Intn(n)
}

// Int63 returns a non-negative pseudo-random int64.
func (g *RNG) Int63() int64 {
	return g.src().Int63()
}

// Float64 returns a sample from [0, 1).
func (g *RNG) Float64() float64 {
	return g.src().Float64()
}

// Perm returns a pseudo-random permutation of [0, n).
func (g *RNG) Perm(n int) []int {
	return g.src().Perm(n)
}

// Choice returns a uniformly chosen index weighted by the given
// non-negative weights. If all weights are zero it falls back to a uniform
// choice. It panics on an empty slice.
func (g *RNG) Choice(weights []float64) int {
	if len(weights) == 0 {
		panic("rngutil: Choice on empty weights")
	}
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return g.Intn(len(weights))
	}
	x := g.src().Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}

// Shuffle permutes the first n elements using swap, like rand.Shuffle.
func (g *RNG) Shuffle(n int, swap func(i, j int)) {
	g.src().Shuffle(n, swap)
}

// Split derives a child RNG whose stream is independent of subsequent draws
// from g. Experiments use it to give each taskset its own stream so that
// adding a solution does not perturb workload generation.
func (g *RNG) Split() *RNG {
	return New(g.src().Int63())
}
