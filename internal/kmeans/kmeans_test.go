package kmeans

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"vc2m/internal/rngutil"
)

func TestEmptyInput(t *testing.T) {
	r := Cluster(nil, 1, 3, rngutil.New(1))
	if len(r.Assign) != 0 || r.K != 0 {
		t.Errorf("empty input should yield empty result, got %+v", r)
	}
}

func TestPanicsOnNonPositiveK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Cluster with k=0 did not panic")
		}
	}()
	Cluster([]float64{1}, 1, 0, rngutil.New(1))
}

func TestPanicsOnMixedDimensions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Cluster with mixed dimensions did not panic")
		}
	}()
	Cluster([]float64{1, 2, 1}, 2, 1, rngutil.New(1))
}

func TestSinglePoint(t *testing.T) {
	r := Cluster([]float64{3, 4}, 2, 5, rngutil.New(1))
	if r.K != 1 || r.Assign[0] != 0 {
		t.Errorf("single point: got %+v", r)
	}
}

func TestTwoWellSeparatedClusters(t *testing.T) {
	pts := [][]float64{
		{0, 0}, {0.1, 0}, {0, 0.1}, {0.1, 0.1},
		{10, 10}, {10.1, 10}, {10, 10.1}, {10.1, 10.1},
	}
	r := clusterRows(pts, 2, rngutil.New(42))
	if r.K != 2 {
		t.Fatalf("K = %d, want 2", r.K)
	}
	// All of the first four must share a label, all of the last four the other.
	for i := 1; i < 4; i++ {
		if r.Assign[i] != r.Assign[0] {
			t.Errorf("point %d not clustered with point 0: %v", i, r.Assign)
		}
	}
	for i := 5; i < 8; i++ {
		if r.Assign[i] != r.Assign[4] {
			t.Errorf("point %d not clustered with point 4: %v", i, r.Assign)
		}
	}
	if r.Assign[0] == r.Assign[4] {
		t.Errorf("separated groups merged: %v", r.Assign)
	}
}

func TestThreeClustersInSlowdownSpace(t *testing.T) {
	// Mimic slowdown vectors: flat (compute-bound), steep (memory-bound),
	// and intermediate profiles.
	flat := []float64{1.05, 1.02, 1.01, 1.0}
	steep := []float64{4.0, 2.5, 1.6, 1.0}
	mid := []float64{2.0, 1.6, 1.3, 1.0}
	var pts [][]float64
	for i := 0; i < 5; i++ {
		pts = append(pts, jitter(flat, float64(i)*0.001))
		pts = append(pts, jitter(steep, float64(i)*0.001))
		pts = append(pts, jitter(mid, float64(i)*0.001))
	}
	r := clusterRows(pts, 3, rngutil.New(7))
	if r.K != 3 {
		t.Fatalf("K = %d, want 3", r.K)
	}
	// Points of the same family (index mod 3) must share a cluster.
	for fam := 0; fam < 3; fam++ {
		want := r.Assign[fam]
		for i := fam; i < len(pts); i += 3 {
			if r.Assign[i] != want {
				t.Errorf("family %d split across clusters: %v", fam, r.Assign)
			}
		}
	}
}

func jitter(p []float64, d float64) []float64 {
	out := make([]float64, len(p))
	for i, v := range p {
		out[i] = v + d
	}
	return out
}

func TestDeterministicUnderSeed(t *testing.T) {
	pts := [][]float64{{1}, {2}, {9}, {10}, {5}, {6}}
	a := clusterRows(pts, 3, rngutil.New(123))
	b := clusterRows(pts, 3, rngutil.New(123))
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("same seed produced different assignments: %v vs %v", a.Assign, b.Assign)
		}
	}
}

func TestKLargerThanN(t *testing.T) {
	pts := [][]float64{{1}, {2}, {3}}
	r := clusterRows(pts, 10, rngutil.New(5))
	if r.K > 3 {
		t.Errorf("K = %d exceeds number of points", r.K)
	}
	for _, a := range r.Assign {
		if a < 0 || a >= r.K {
			t.Errorf("assignment %d out of range [0,%d)", a, r.K)
		}
	}
}

func TestIdenticalPoints(t *testing.T) {
	pts := [][]float64{{2, 2}, {2, 2}, {2, 2}, {2, 2}}
	r, centers := centersRows(pts, 3, rngutil.New(9))
	for _, a := range r.Assign {
		if a < 0 || a >= r.K {
			t.Errorf("invalid assignment for identical points: %+v", r)
		}
	}
	if got := inertiaRows(pts, r, centers); math.Float64bits(got) != 0 {
		t.Errorf("identical points should have zero inertia, got %v", got)
	}
}

func TestAssignmentsAlwaysValid(t *testing.T) {
	f := func(raw []uint8, kRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		pts := make([][]float64, len(raw))
		for i, v := range raw {
			pts[i] = []float64{float64(v), float64(v % 7)}
		}
		k := int(kRaw%8) + 1
		r, centers := centersRows(pts, k, rngutil.New(77))
		if len(r.Assign) != len(pts) {
			return false
		}
		if r.K*2 != len(centers) { // two-dimensional points
			return false
		}
		used := make([]bool, r.K)
		for _, a := range r.Assign {
			if a < 0 || a >= r.K {
				return false
			}
			used[a] = true
		}
		for _, u := range used {
			if !u { // compact() must drop empty clusters
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestInertiaDecreasesWithMoreClusters(t *testing.T) {
	pts := [][]float64{{0}, {1}, {2}, {10}, {11}, {12}, {20}, {21}, {22}}
	r1, c1 := centersRows(pts, 1, rngutil.New(3))
	r3, c3 := centersRows(pts, 3, rngutil.New(3))
	if i1, i3 := inertiaRows(pts, r1, c1), inertiaRows(pts, r3, c3); i3 >= i1 {
		t.Errorf("inertia with k=3 (%v) not below k=1 (%v)", i3, i1)
	}
}

// flatRows packs equal-length rows into Cluster's flat layout.
func flatRows(pts [][]float64) ([]float64, int) {
	if len(pts) == 0 {
		return nil, 1
	}
	dim := len(pts[0])
	flat := make([]float64, 0, len(pts)*dim)
	for _, p := range pts {
		flat = append(flat, p...)
	}
	return flat, dim
}

// clusterRows runs Cluster on rows.
func clusterRows(pts [][]float64, k int, rng *rngutil.RNG) Result {
	flat, dim := flatRows(pts)
	return Cluster(flat, dim, k, rng)
}

// centersRows runs Cluster's kernel on rows with fresh working memory and
// returns the result with its final centers, which Result does not carry.
func centersRows(pts [][]float64, k int, rng *rngutil.RNG) (Result, []float64) {
	flat, dim := flatRows(pts)
	return new(scratch).cluster(flat, dim, k, rng)
}

// inertiaRows returns the total within-cluster sum of squared distances of
// a result over the rows it was computed from, a standard
// clustering-quality metric.
func inertiaRows(pts [][]float64, r Result, centers []float64) float64 {
	flat, dim := flatRows(pts)
	var total float64
	for i, c := range r.Assign {
		total += sqDist(flat[i*dim:(i+1)*dim], centers[c*dim:(c+1)*dim])
	}
	return total
}

// refResult is Result in the row layout the reference returns.
type refResult struct {
	Assign     []int
	Centers    [][]float64
	K          int
	Iterations int
}

// clusterRef is Cluster as it was before pruned distances and the flat
// layout: every distance computed in full, the seeding minimum recomputed
// over every chosen center each round, one slice per point and center.
// It is the differential oracle for Cluster, which must match it bit for
// bit. It also counts how many times the empty-cluster re-seed ran, so the
// tests can show they reach that path.
func clusterRef(points [][]float64, k int, rng *rngutil.RNG) (refResult, int) {
	n := len(points)
	if n == 0 {
		return refResult{Assign: []int{}, Centers: [][]float64{}}, 0
	}
	dim := len(points[0])
	if k > n {
		k = n
	}

	centers := seedRef(points, k, rng)
	assign := make([]int, n)
	prev := make([]int, n)
	for i := range prev {
		prev[i] = -1
	}

	reseeds := 0
	iter := 0
	for ; iter < maxIterations; iter++ {
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c, ctr := range centers {
				if d := sqDist(p, ctr); d < bestD {
					best, bestD = c, d
				}
			}
			assign[i] = best
			if assign[i] != prev[i] {
				changed = true
			}
		}
		if !changed {
			break
		}
		copy(prev, assign)

		counts := make([]int, len(centers))
		for c := range centers {
			for d := 0; d < dim; d++ {
				centers[c][d] = 0
			}
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for d := 0; d < dim; d++ {
				centers[c][d] += p[d]
			}
		}
		for c := range centers {
			if counts[c] == 0 {
				reseeds++
				centers[c] = append([]float64(nil), points[farthestRef(points, centers, assign)]...)
				continue
			}
			for d := 0; d < dim; d++ {
				centers[c][d] /= float64(counts[c])
			}
		}
	}

	used := make([]bool, len(centers))
	for _, a := range assign {
		used[a] = true
	}
	remap := make([]int, len(centers))
	var kept [][]float64
	for c := range centers {
		if used[c] {
			remap[c] = len(kept)
			kept = append(kept, centers[c])
		} else {
			remap[c] = -1
		}
	}
	out := make([]int, len(assign))
	for i, a := range assign {
		out[i] = remap[a]
	}
	return refResult{Assign: out, Centers: kept, K: len(kept), Iterations: iter}, reseeds
}

func seedRef(points [][]float64, k int, rng *rngutil.RNG) [][]float64 {
	n := len(points)
	centers := make([][]float64, 0, k)
	centers = append(centers, append([]float64(nil), points[rng.Intn(n)]...))
	d2 := make([]float64, n)
	for len(centers) < k {
		for i, p := range points {
			best := math.Inf(1)
			for _, c := range centers {
				if d := sqDist(p, c); d < best {
					best = d
				}
			}
			d2[i] = best
		}
		centers = append(centers, append([]float64(nil), points[rng.Choice(d2)]...))
	}
	return centers
}

func farthestRef(points [][]float64, centers [][]float64, assign []int) int {
	best, bestD := 0, -1.0
	for i, p := range points {
		d := sqDist(p, centers[assign[i]])
		if d > bestD {
			best, bestD = i, d
		}
	}
	return best
}

// slowdownCap mirrors the cap the allocators clamp slowdown entries to
// before clustering (existing-CSA tables hold +Inf); many points sit on it.
const slowdownCap = 50.0

// checkMatchesRef runs Cluster's kernel and clusterRef on the same points
// and seed and fails unless Assign, K, Iterations and every center bit
// agree. Cluster itself, on pooled working memory that earlier calls of
// other shapes left dirty, must return the same Result. It returns how
// often the reference re-seeded an empty cluster.
func checkMatchesRef(t *testing.T, pts [][]float64, k int, seed int64) int {
	t.Helper()
	want, reseeds := clusterRef(pts, k, rngutil.New(seed))
	got, gotCenters := centersRows(pts, k, rngutil.New(seed))
	pooled := clusterRows(pts, k, rngutil.New(seed))
	for _, r := range []Result{got, pooled} {
		if r.K != want.K || r.Iterations != want.Iterations {
			t.Fatalf("n=%d k=%d seed=%d: K, Iterations = %d, %d; reference %d, %d",
				len(pts), k, seed, r.K, r.Iterations, want.K, want.Iterations)
		}
		if !slices.Equal(r.Assign, want.Assign) {
			t.Fatalf("n=%d k=%d seed=%d: Assign = %v, reference %v", len(pts), k, seed, r.Assign, want.Assign)
		}
	}
	wantCenters, _ := flatRows(want.Centers)
	if len(gotCenters) != len(wantCenters) {
		t.Fatalf("n=%d k=%d seed=%d: %d center entries, reference %d",
			len(pts), k, seed, len(gotCenters), len(wantCenters))
	}
	for i, x := range gotCenters {
		if math.Float64bits(x) != math.Float64bits(wantCenters[i]) {
			t.Fatalf("n=%d k=%d seed=%d: center entry %d = %v, reference %v",
				len(pts), k, seed, i, x, wantCenters[i])
		}
	}
	return reseeds
}

// genPoints draws n points of dimension dim shaped like clamped slowdown
// vectors: a per-point base level with jitter, some entries pinned at
// slowdownCap, and about a quarter of the points exact duplicates of an
// earlier one. shape selects, per point, duplicate / capped / plain.
func genPoints(rng *rngutil.RNG, n, dim int, shape func(i int) int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		s := shape(i)
		if s%4 == 0 && i > 0 {
			pts[i] = append([]float64(nil), pts[(s/4)%i]...)
			continue
		}
		p := make([]float64, dim)
		base := 1 + rng.Float64()*float64(1+s%5)
		for d := range p {
			p[d] = base * (1 + rng.Float64()*0.2)
			if s%4 == 1 && rng.Intn(3) == 0 {
				p[d] = slowdownCap
			}
		}
		pts[i] = p
	}
	return pts
}

// TestClusterMatchesReference is the differential oracle for the pruned,
// flat Cluster: over dimensions 1..400 (most not multiples of the
// eight-term unroll), duplicate points, capped entries, and k both below
// and above the number of distinct points, it must reproduce clusterRef
// bit for bit — and the inputs must drive the empty-cluster re-seed.
func TestClusterMatchesReference(t *testing.T) {
	rng := rngutil.New(21)
	dims := []int{1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 100, 380, 399, 400}
	reseeds := 0
	for _, dim := range dims {
		for trial := 0; trial < 8; trial++ {
			n := 1 + rng.Intn(40)
			pts := genPoints(rng, n, dim, func(int) int { return rng.Intn(64) })
			for _, k := range []int{1, 2, 3, 5, 8, n + 2} {
				reseeds += checkMatchesRef(t, pts, k, int64(trial*31+k))
			}
		}
	}
	// Few distinct points and k above their count: kmeans++ must draw
	// duplicate centers, and the higher-index twin empties.
	for trial := 0; trial < 60; trial++ {
		dim := 1 + rng.Intn(400)
		distinct := genPoints(rng, 1+rng.Intn(3), dim, func(int) int { return 1 + rng.Intn(2) })
		var pts [][]float64
		for i := 0; i < 6+rng.Intn(20); i++ {
			pts = append(pts, distinct[rng.Intn(len(distinct))])
		}
		reseeds += checkMatchesRef(t, pts, len(distinct)+1+rng.Intn(4), int64(trial))
	}
	if reseeds == 0 {
		t.Fatal("no input reached the empty-cluster re-seed path")
	}
}

// FuzzCluster drives the same differential check from fuzzed shapes: the
// byte string picks each point's kind (duplicate, capped, plain) and the
// point count.
func FuzzCluster(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint16(379), uint8(3), int64(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0}, uint16(0), uint8(5), int64(2))
	f.Add([]byte{1, 4, 8, 12, 16, 5, 20, 9}, uint16(8), uint8(7), int64(3))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, uint16(399), uint8(2), int64(4))
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint16(16), uint8(8), int64(5))
	f.Fuzz(func(t *testing.T, shape []byte, dimRaw uint16, kRaw uint8, seed int64) {
		if len(shape) == 0 || len(shape) > 64 {
			return
		}
		dim := int(dimRaw%400) + 1
		k := int(kRaw%10) + 1
		pts := genPoints(rngutil.New(seed), len(shape), dim, func(i int) int { return int(shape[i]) })
		checkMatchesRef(t, pts, k, seed)
	})
}

// TestSqDistBelowExact pins the pruned distance to the full one: below the
// bound it must return sqDist's exact bits (one accumulator, same order),
// and otherwise some value at or above the bound.
func TestSqDistBelowExact(t *testing.T) {
	rng := rngutil.New(8)
	for dim := 1; dim <= 400; dim += 1 + dim/16 {
		for trial := 0; trial < 20; trial++ {
			a, b := make([]float64, dim), make([]float64, dim)
			for i := range a {
				a[i] = 1 + rng.Float64()*slowdownCap
				b[i] = 1 + rng.Float64()*slowdownCap
			}
			full := sqDist(a, b)
			for _, bound := range []float64{math.Inf(1), math.Nextafter(full, math.Inf(1)), full,
				full * rng.Float64(), 0} {
				got := sqDistBelow(a, b, bound)
				if full < bound && math.Float64bits(got) != math.Float64bits(full) {
					t.Fatalf("dim %d: sqDistBelow(bound %v) = %v, sqDist = %v", dim, bound, got, full)
				}
				if full >= bound && got < bound {
					t.Fatalf("dim %d: sqDistBelow(bound %v) = %v below the bound, sqDist = %v", dim, bound, got, full)
				}
			}
		}
	}
}

// fusedPair returns x, y whose squares sum differently when the second
// square is fused into the addition: float64(x*x) + float64(y*y) differs
// from math.FMA(y, y, float64(x*x)). The search is seeded, so the pair is
// fixed.
func fusedPair(t *testing.T) (x, y, want float64) {
	t.Helper()
	rng := rngutil.New(2)
	for i := 0; i < 1000; i++ {
		x, y = rng.Float64(), rng.Float64()
		want = float64(x*x) + float64(y*y)
		if math.Float64bits(want) != math.Float64bits(math.FMA(y, y, float64(x*x))) {
			return x, y, want
		}
	}
	t.Fatal("no pair whose fused sum differs")
	return 0, 0, 0
}

// TestSqDistRoundsProducts pins every square of sqDist and sqDistBelow to
// a rounded product: with a pair whose fused sum differs, each site, as
// the second nonzero term of a sum, must give the unfused sum's bits. A
// compiler that fused any of them (arm64, ppc64le, s390x, riscv64 may)
// would change the clustering, and with it the layout.
func TestSqDistRoundsProducts(t *testing.T) {
	x, y, want := fusedPair(t)
	if got := sqDist([]float64{x, y}, []float64{0, 0}); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("sqDist = %v, rounded sum %v", got, want)
	}
	// sqDistBelow adds eight terms per unrolled block, then the tail one
	// by one. Positions 8..15 reach each of the block's eight sites with a
	// nonzero sum before it; position 16 reaches the tail.
	for p := 8; p <= 16; p++ {
		a := make([]float64, 17)
		a[p-1], a[p] = x, y
		if got := sqDistBelow(a, make([]float64, 17), math.Inf(1)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("sqDistBelow with the pair at %d, %d = %v, rounded sum %v", p-1, p, got, want)
		}
	}
}
