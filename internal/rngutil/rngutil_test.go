package rngutil

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sameFloat reports whether x and y are the same float64, bit for bit.
func sameFloat(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if !sameFloat(a.Float64(), b.Float64()) {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := true
	for i := 0; i < 10; i++ {
		if !sameFloat(a.Float64(), b.Float64()) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestUniformRange(t *testing.T) {
	g := New(7)
	for i := 0; i < 1000; i++ {
		x := g.Uniform(0.1, 0.4)
		if x < 0.1 || x >= 0.4 {
			t.Fatalf("Uniform(0.1, 0.4) = %v out of range", x)
		}
	}
}

func TestUniformDegenerate(t *testing.T) {
	g := New(7)
	if x := g.Uniform(3, 3); !sameFloat(x, 3) {
		t.Errorf("Uniform(3,3) = %v, want 3", x)
	}
}

func TestUniformPanicsOnInvertedRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Uniform(1, 0) did not panic")
		}
	}()
	New(1).Uniform(1, 0)
}

func TestBimodalRanges(t *testing.T) {
	g := New(11)
	light, heavy := 0, 0
	for i := 0; i < 10000; i++ {
		x := g.Bimodal(0.1, 0.4, 0.5, 0.9, 8.0/9.0)
		switch {
		case x >= 0.1 && x < 0.4:
			light++
		case x >= 0.5 && x < 0.9:
			heavy++
		default:
			t.Fatalf("Bimodal sample %v outside both modes", x)
		}
	}
	frac := float64(light) / 10000
	if frac < 0.85 || frac > 0.93 {
		t.Errorf("light fraction = %v, want approx 8/9", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	g := New(3)
	p := g.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm(20) invalid: %v", p)
		}
		seen[v] = true
	}
}

func TestChoiceWeighted(t *testing.T) {
	g := New(5)
	counts := [3]int{}
	for i := 0; i < 30000; i++ {
		counts[g.Choice([]float64{1, 2, 1})]++
	}
	// Middle entry has weight 2/4 = 0.5.
	frac := float64(counts[1]) / 30000
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("weighted choice fraction = %v, want approx 0.5", frac)
	}
}

func TestChoiceZeroWeightsUniform(t *testing.T) {
	g := New(5)
	counts := [4]int{}
	for i := 0; i < 4000; i++ {
		counts[g.Choice([]float64{0, 0, 0, 0})]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Errorf("zero-weight Choice never picked index %d", i)
		}
	}
}

func TestChoiceNegativeWeightIgnored(t *testing.T) {
	g := New(9)
	for i := 0; i < 1000; i++ {
		if idx := g.Choice([]float64{-5, 1, 0}); idx != 1 {
			t.Fatalf("Choice picked index %d with zero/negative weight", idx)
		}
	}
}

func TestChoicePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Choice(nil) did not panic")
		}
	}()
	New(1).Choice(nil)
}

func TestSplitIndependence(t *testing.T) {
	g1 := New(99)
	child1 := g1.Split()
	seq1 := []float64{child1.Float64(), child1.Float64()}

	// Recreate and interleave extra draws from the parent after splitting;
	// the child stream must be unchanged.
	g2 := New(99)
	child2 := g2.Split()
	g2.Float64()
	g2.Float64()
	seq2 := []float64{child2.Float64(), child2.Float64()}

	for i := range seq1 {
		if !sameFloat(seq1[i], seq2[i]) {
			t.Fatalf("child stream perturbed by parent draws at %d", i)
		}
	}
}

func TestShuffle(t *testing.T) {
	g := New(4)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	g.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make(map[int]bool)
	for _, v := range xs {
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Errorf("Shuffle lost elements: %v", xs)
	}
}

func TestIntn(t *testing.T) {
	g := New(8)
	for i := 0; i < 1000; i++ {
		if v := g.Intn(13); v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
}

// oracleSeeds are the seeds the differential tests run: the edge cases of
// rngSource.Seed's normalization (0 and every multiple of int32max map to
// 89482311, negatives wrap), the int64 extremes, and a fixed batch of
// random seeds.
func oracleSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 42, -7, int32max, -int32max, int32max - 1, int32max + 1,
		2 * int32max, -3 * int32max, 89482311, 89482311 + int32max,
		(math.MaxInt64 / int32max) * int32max, math.MinInt64, math.MinInt64 + 1, math.MaxInt64,
	}
	r := rand.New(rand.NewSource(20260419))
	for range 24 {
		seeds = append(seeds, int64(r.Uint64()), r.Int63n(1<<31))
	}
	return seeds
}

// oracleDrawCounts are the raw stream lengths the differential test
// compares: around the first draw, the materializing draw 274, the end of
// the seeded feed words (334) and of the first register pass (607).
var oracleDrawCounts = []int{0, 1, 272, 273, 274, 334, 335, 606, 607, 608, 2000}

// TestLazySeedingMatchesMathRand pins the on-demand seeded RNG to the
// stream of rand.New(rand.NewSource(seed)) it replaces. For every seed:
// the raw Uint64 and Int63 streams (and the draw after each) at every
// length in oracleDrawCounts; every RNG method, with Split at draw counts
// on both sides of the 274 boundary; and two RNGs drawn in interleaved
// turns, each against its own reference.
func TestLazySeedingMatchesMathRand(t *testing.T) {
	for _, seed := range oracleSeeds() {
		for _, n := range oracleDrawCounts {
			for _, uint64First := range []bool{true, false} {
				var s source
				s.Seed(seed)
				ref := rand.NewSource(seed).(rand.Source64)
				// n draws of one method, then one of the other.
				for k := 1; k <= n+1; k++ {
					var got, want uint64
					if uint64First == (k <= n) {
						got, want = s.Uint64(), ref.Uint64()
					} else {
						got, want = uint64(s.Int63()), uint64(ref.Int63())
					}
					if got != want {
						t.Fatalf("seed %d, %d-draw stream (Uint64 first %v): draw %d = %#x, want %#x",
							seed, n, uint64First, k, got, want)
					}
				}
			}
		}
		for _, n := range []int{0, 1, 272, 273, 274, 607} {
			g, ref := New(seed), rand.New(rand.NewSource(seed))
			for k := 0; k < n; k++ {
				if got, want := g.Int63(), ref.Int63(); got != want {
					t.Fatalf("seed %d: draw %d = %d, want %d", seed, k+1, got, want)
				}
			}
			child := g.Split()
			childRef := rand.New(rand.NewSource(ref.Int63()))
			for k := 0; k < 300; k++ {
				if got, want := child.Int63(), childRef.Int63(); got != want {
					t.Fatalf("seed %d, child split after %d draws: draw %d = %d, want %d", seed, n, k+1, got, want)
				}
				if got, want := g.Int63(), ref.Int63(); got != want {
					t.Fatalf("seed %d, parent split after %d draws: draw %d after split = %d, want %d", seed, n, k+1, got, want)
				}
			}
		}
		checkMethods(t, seed)
	}
}

// checkMethods runs every RNG method against rand.New(rand.NewSource(seed))
// for enough rounds to cross the 274-draw boundary.
func checkMethods(t *testing.T, seed int64) {
	t.Helper()
	g, ref := New(seed), rand.New(rand.NewSource(seed))
	h, href := New(seed^0x5eed), rand.New(rand.NewSource(seed^0x5eed))
	check := func(what string, got, want float64) {
		t.Helper()
		if !sameFloat(got, want) {
			t.Fatalf("seed %d %s: got %v, want %v", seed, what, got, want)
		}
	}
	// Split before any draw draws one Int63 from the parent.
	child := g.Split()
	childRef := rand.New(rand.NewSource(ref.Int63()))
	for round := 0; round < 30; round++ {
		check("Float64", g.Float64(), ref.Float64())
		check("interleaved Float64", h.Float64(), href.Float64())
		check("Uniform", g.Uniform(0.5, 2.5), 0.5+ref.Float64()*2)
		// A width that is not a power of two, so the product is rounded
		// before the sum.
		check("Uniform rounded", g.Uniform(0.1, 0.7), 0.1+float64(ref.Float64()*(0.7-0.1)))
		check("Uniform empty", g.Uniform(4, 4), 4) // draws nothing
		lo1, hi1, lo2, hi2, pLight := 0.1, 0.4, 0.5, 0.9, 0.3
		lo, hi := lo2, hi2
		if ref.Float64() < pLight {
			lo, hi = lo1, hi1
		}
		wantB := lo + float64(ref.Float64()*(hi-lo))
		check("Bimodal", g.Bimodal(lo1, hi1, lo2, hi2, pLight), wantB)
		check("Intn", float64(g.Intn(1000)), float64(ref.Intn(1000)))
		check("interleaved Int63", float64(h.Int63()), float64(href.Int63()))
		check("Int63", float64(g.Int63()), float64(ref.Int63()))
		if got, want := g.Perm(7), ref.Perm(7); !slices.Equal(got, want) {
			t.Fatalf("seed %d Perm: got %v, want %v", seed, got, want)
		}
		got, want := []int{0, 1, 2, 3, 4, 5}, []int{0, 1, 2, 3, 4, 5}
		g.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
		ref.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d Shuffle: got %v, want %v", seed, got, want)
		}
		check("Choice", float64(g.Choice([]float64{1, 0, 2, 3})), float64(choiceRef(ref, []float64{1, 0, 2, 3})))
		check("Choice zero weights", float64(g.Choice([]float64{0, 0, 0})), float64(ref.Intn(3)))
		check("child Float64", child.Float64(), childRef.Float64())
		late := g.Split()
		lateRef := rand.New(rand.NewSource(ref.Int63()))
		check("late child Int63", float64(late.Int63()), float64(lateRef.Int63()))
	}
	if g.s.vec == nil {
		t.Fatalf("seed %d: the method rounds never crossed the %d-draw boundary", seed, rngTap+1)
	}
}

// FuzzRNGMatchesMathRand compares the first draws raw draws of the
// on-demand seeded source with rand.NewSource(seed)'s, alternating Int63
// and Uint64.
func FuzzRNGMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, int32max, 2 * int32max, math.MinInt64, math.MaxInt64} {
		for _, n := range []uint16{1, 273, 274, 607, 2000} {
			f.Add(seed, n)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		var s source
		s.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for k := 1; k <= int(draws); k++ {
			var got, want uint64
			if k%2 == 0 {
				got, want = s.Uint64(), ref.Uint64()
			} else {
				got, want = uint64(s.Int63()), uint64(ref.Int63())
			}
			if got != want {
				t.Fatalf("seed %d: draw %d = %#x, want %#x", seed, k, got, want)
			}
		}
	})
}

// choiceRef is Choice's weighted draw written against a bare *rand.Rand.
func choiceRef(r *rand.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	x := r.Float64() * total
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

// TestUndrawnRNGIsNotSeeded pins what on-demand seeding saves: New and a
// Split child build no rand.Rand and no register until drawn from, and an
// RNG drawn up to 273 times never builds the register; its 274th draw
// does.
func TestUndrawnRNGIsNotSeeded(t *testing.T) {
	g := New(3)
	if g.r != nil || g.s.vec != nil {
		t.Fatal("New built its source before any draw")
	}
	child := g.Split()
	if child.r != nil || child.s.vec != nil {
		t.Fatal("Split built the child's source before any draw")
	}
	for k := 1; k <= rngTap; k++ {
		child.Int63()
		if child.s.vec != nil {
			t.Fatalf("draw %d built the register", k)
		}
	}
	child.Int63()
	if child.s.vec == nil {
		t.Fatalf("draw %d did not build the register", rngTap+1)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = New(9) }); allocs > 1 {
		t.Errorf("New allocates %v times per call, want at most 1 (the RNG itself)", allocs)
	}
	// The RNG and its rand.Rand; no register.
	drawn := func() {
		g := New(9)
		for range rngTap {
			g.Int63()
		}
	}
	if allocs := testing.AllocsPerRun(100, drawn); allocs > 2 {
		t.Errorf("an RNG drawn %d times allocates %v times, want at most 2", rngTap, allocs)
	}
}

func BenchmarkRNGFirstDraw(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(int64(i)).Int63()
	}
}

func BenchmarkRNGDraws1000(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := New(int64(i))
		for range 1000 {
			g.Int63()
		}
	}
}
