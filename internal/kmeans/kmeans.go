// Package kmeans implements Lloyd's algorithm with kmeans++ seeding for
// clustering slowdown vectors.
//
// Both allocation levels in vC2M group entities (tasks at the VM level,
// VCPUs at the hypervisor level) with similar sensitivity to cache and
// memory-bandwidth resources, so that the partitions granted to a VCPU or a
// core benefit everything placed on it. A slowdown vector is a point in
// R^((C-Cmin+1)*(B-Bmin+1)); Euclidean distance between two such points is a
// natural similarity measure because entries are normalized slowdowns
// (s(C,B) = 1 for everything).
//
// Points and centers are stored row-major in one flat []float64 with a
// caller-given dimension. Nearest-center searches abandon a distance once
// its partial sum reaches the best distance so far: the terms are
// non-negative and each is added in order into a single accumulator, so
// every partial sum is a lower bound of the rounded full sum and the
// result — assignments, tie-breaks, centers and the seeding weights — is
// bit-identical to computing every distance in full.
//
// The implementation is fully deterministic under a caller-supplied RNG.
package kmeans

import (
	"math"
	"slices"
	"sync"

	"vc2m/internal/rngutil"
)

// Result holds the outcome of a clustering run.
type Result struct {
	// Assign maps each input point index to a cluster index in [0, K).
	Assign []int
	// K is the number of non-empty clusters actually produced (empty
	// clusters are dropped and indices compacted).
	K int
	// Iterations is the number of Lloyd iterations executed.
	Iterations int
}

// maxIterations bounds the Lloyd loop; the clustering problems in this
// repository (tens to hundreds of points, k <= 8) converge in far fewer.
const maxIterations = 100

// scratch is Cluster's working memory: the centers, the kmeans++ nearest
// distances, the previous assignment, the cluster sizes and the compaction
// remap. Cluster takes one from scratchPool and returns it before it
// returns, so nothing in a scratch outlives the call.
type scratch struct {
	centers, d2         []float64
	prev, counts, remap []int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Cluster partitions the points — len(points)/dim rows of dim entries in
// one flat slice — into at most k clusters and returns the assignment. It
// panics if k <= 0. If there are fewer distinct points than k, fewer
// clusters are returned. An empty point set yields an empty result.
// Cluster panics unless dim is positive and divides len(points).
//
// Cluster keeps no reference to points once it returns, so callers may
// recycle the buffer; the returned Assign is freshly allocated and theirs
// to keep.
func Cluster(points []float64, dim, k int, rng *rngutil.RNG) Result {
	s := scratchPool.Get().(*scratch)
	r, _ := s.cluster(points, dim, k, rng)
	scratchPool.Put(s)
	return r
}

// cluster is Cluster on the working memory s. It also returns the final
// centers, K rows of dim entries that alias s and are valid until s is
// next used.
func (s *scratch) cluster(points []float64, dim, k int, rng *rngutil.RNG) (Result, []float64) {
	if k <= 0 {
		panic("kmeans: k must be positive")
	}
	if len(points) == 0 {
		return Result{Assign: []int{}}, nil
	}
	if dim <= 0 || len(points)%dim != 0 {
		panic("kmeans: points with inconsistent dimensions")
	}
	n := len(points) / dim
	if k > n {
		k = n
	}

	centers := s.seedPlusPlus(points, dim, k, rng)
	assign := make([]int, n)
	s.prev = slices.Grow(s.prev[:0], n)[:n]
	prev := s.prev
	for i := range prev {
		prev[i] = -1
	}
	s.counts = slices.Grow(s.counts[:0], k)[:k]
	counts := s.counts

	iter := 0
	for ; iter < maxIterations; iter++ {
		changed := false
		for i := range assign {
			p := points[i*dim : (i+1)*dim]
			best, bestD := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				if d := sqDistBelow(p, centers[c*dim:(c+1)*dim], bestD); d < bestD {
					best, bestD = c, d
				}
			}
			assign[i] = best
			if best != prev[i] {
				changed = true
			}
		}
		if !changed {
			break
		}
		copy(prev, assign)

		// Recompute centroids.
		clear(centers)
		clear(counts)
		for i, c := range assign {
			counts[c]++
			ctr := centers[c*dim : (c+1)*dim]
			for d, x := range points[i*dim : (i+1)*dim] {
				ctr[d] += x
			}
		}
		for c := 0; c < k; c++ {
			ctr := centers[c*dim : (c+1)*dim]
			if counts[c] == 0 {
				// Re-seed an empty cluster at the point farthest from its
				// current center, a standard fix that keeps k stable when
				// the data supports it.
				f := farthestPoint(points, centers, dim, assign)
				copy(ctr, points[f*dim:(f+1)*dim])
				continue
			}
			for d := range ctr {
				ctr[d] /= float64(counts[c])
			}
		}
	}

	kept := s.compact(assign, centers, dim, k)
	return Result{Assign: assign, K: kept, Iterations: iter}, centers[:kept*dim]
}

// seedPlusPlus picks k initial centers with the kmeans++ strategy: the first
// uniformly, each subsequent one with probability proportional to its
// squared distance from the nearest chosen center. The nearest distances
// are kept across rounds, and each round only lowers them against the
// center it just added — the same strict-less fold, in the same center
// order, as recomputing the minimum over every chosen center.
func (s *scratch) seedPlusPlus(points []float64, dim, k int, rng *rngutil.RNG) []float64 {
	n := len(points) / dim
	s.centers = slices.Grow(s.centers[:0], k*dim)[:k*dim]
	centers := s.centers
	f := rng.Intn(n)
	copy(centers, points[f*dim:(f+1)*dim])
	s.d2 = slices.Grow(s.d2[:0], n)[:n]
	d2 := s.d2
	for i := range d2 {
		d2[i] = math.Inf(1)
	}
	for c := 1; c < k; c++ {
		newest := centers[(c-1)*dim : c*dim]
		for i := range d2 {
			if d := sqDistBelow(points[i*dim:(i+1)*dim], newest, d2[i]); d < d2[i] {
				d2[i] = d
			}
		}
		f = rng.Choice(d2)
		copy(centers[c*dim:(c+1)*dim], points[f*dim:(f+1)*dim])
	}
	return centers
}

// farthestPoint returns the index of the point with the greatest distance to
// its assigned center.
func farthestPoint(points, centers []float64, dim int, assign []int) int {
	best, bestD := 0, -1.0
	for i, c := range assign {
		d := sqDist(points[i*dim:(i+1)*dim], centers[c*dim:(c+1)*dim])
		if d > bestD {
			best, bestD = i, d
		}
	}
	return best
}

// compact removes empty clusters, renumbers assignments densely and
// returns the number of clusters kept. Kept centers only move to lower
// rows, so they are packed in place.
func (s *scratch) compact(assign []int, centers []float64, dim, k int) int {
	s.remap = slices.Grow(s.remap[:0], k)[:k]
	remap := s.remap
	for c := range remap {
		remap[c] = -1
	}
	for _, a := range assign {
		remap[a] = 0 // used
	}
	kept := 0
	for c := 0; c < k; c++ {
		if remap[c] < 0 {
			continue
		}
		remap[c] = kept
		copy(centers[kept*dim:(kept+1)*dim], centers[c*dim:(c+1)*dim])
		kept++
	}
	for i, a := range assign {
		assign[i] = remap[a]
	}
	return kept
}

// sqDist returns the squared Euclidean distance between a and b. Each
// square is rounded before it is added (the explicit conversion forbids a
// fused multiply-add), so every architecture sums the same terms.
func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return s
}

// sqDistBelow returns sqDist(a, b) when that is below bound, and otherwise
// some value >= bound. It adds the same terms in the same order into one
// accumulator as sqDist and stops once a partial sum reaches the bound:
// the terms are non-negative and rounded addition of a non-negative term
// never decreases a sum, so no later term can bring it back below. Eight
// terms go per bound check; the single accumulator keeps the rounding, and
// each square is rounded before it is added, as in sqDist.
func sqDistBelow(a, b []float64, bound float64) float64 {
	b = b[:len(a)]
	var s float64
	i := 0
	for ; i+8 <= len(a); i += 8 {
		d0 := a[i] - b[i]
		s += float64(d0 * d0)
		d1 := a[i+1] - b[i+1]
		s += float64(d1 * d1)
		d2 := a[i+2] - b[i+2]
		s += float64(d2 * d2)
		d3 := a[i+3] - b[i+3]
		s += float64(d3 * d3)
		d4 := a[i+4] - b[i+4]
		s += float64(d4 * d4)
		d5 := a[i+5] - b[i+5]
		s += float64(d5 * d5)
		d6 := a[i+6] - b[i+6]
		s += float64(d6 * d6)
		d7 := a[i+7] - b[i+7]
		s += float64(d7 * d7)
		if s >= bound {
			return s
		}
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return s
}
