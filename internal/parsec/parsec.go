// Package parsec provides synthetic stand-ins for the PARSEC benchmark
// profiles the paper measured on its Xen/vCAT prototype (Section 5.1).
//
// The paper profiles each benchmark's execution time under every cache/BW
// allocation (c, b) with c = 2..20 and b = 1..20, then derives a slowdown
// vector s_k(c,b) = e_k(c,b)/e_k(C,B) and a maximum slowdown factor
// s_k^max = e_k^max/e_k(C,B), where e_k^max is measured with the cache
// disabled and worst-case bandwidth. No such hardware is available here, so
// this package substitutes an analytic model whose parameters are set per
// benchmark from the published PARSEC characterization (Bienia et al.,
// PACT'08): compute-bound codes (swaptions, blackscholes) are nearly flat,
// streaming/memory-bound codes (streamcluster, canneal) are steep in both
// cache and bandwidth.
//
// The model decomposes normalized execution time into compute and memory
// stall components:
//
//	r(c,b) = f + (1-f) * mu(c) * lambda(b)
//
// where f is the compute fraction at full allocation, mu(c) >= 1 is the
// cache-miss inflation with c partitions (working-set curve), and
// lambda(b) >= 1 is the stall inflation when only b bandwidth partitions
// are allocated (saturating: a single core cannot consume the whole bus, so
// lambda(b) = max(1, K/b) for a per-benchmark saturation point K). The
// slowdown vector is r normalized by its value at the platform's full
// allocation, which preserves exactly the properties the allocation
// algorithms consume: s(C,B) = 1, monotone non-increasing in c and b, with
// per-benchmark shape differences.
package parsec

import (
	"fmt"
	"math"

	"vc2m/internal/model"
)

// Benchmark is a synthetic PARSEC benchmark profile.
type Benchmark struct {
	// Name is the PARSEC benchmark name.
	Name string
	// CPUFrac (f) is the fraction of execution time at full allocation
	// that is pure compute, insensitive to cache and bandwidth.
	CPUFrac float64
	// MissInflation (mu0) is the ratio of cache misses with the cache
	// effectively disabled to misses with the full cache.
	MissInflation float64
	// WorkingSet (W) is the number of cache partitions after which the
	// miss curve saturates (the benchmark's working set fits).
	WorkingSet float64
	// Gamma shapes the miss curve: mu(c) = 1 + (mu0-1)*((W-c)/W)^Gamma for
	// c < W. Larger Gamma means the benefit of additional cache
	// concentrates near the working-set size.
	Gamma float64
	// BWSat (K) is the stall inflation under the worst-case bandwidth
	// allocation (b = 1): lambda(1) = K.
	BWSat float64
	// BWRange (R) is the number of bandwidth partitions at which the
	// benchmark's memory stream saturates; stall inflation decays linearly
	// from K at b = 1 to 1 at b = R. (Memory-level parallelism flattens
	// the ideal K/b hyperbola, so a linear ramp is the better synthetic.)
	BWRange float64
	// MaxWCETFactor (S) is the measured execution-time multiplier with the
	// cache disabled and worst-case bandwidth, relative to the full
	// 20-partition allocation — the paper's s^max numerator. Disabling the
	// cache is far worse than the smallest allocatable partition count
	// (even instruction fetches go to DRAM), so S exceeds Raw(Cmin, Bmin).
	MaxWCETFactor float64
}

// All lists the thirteen PARSEC benchmarks used to generate workloads,
// ordered as in the PARSEC suite. Parameters are qualitative reproductions
// of the published characterization.
var All = []Benchmark{
	{Name: "blackscholes", CPUFrac: 0.90, MissInflation: 1.5, WorkingSet: 4, Gamma: 1.0, BWSat: 1.4, BWRange: 2, MaxWCETFactor: 2.1},
	{Name: "bodytrack", CPUFrac: 0.52, MissInflation: 2.5, WorkingSet: 16, Gamma: 0.7, BWSat: 2.3, BWRange: 7, MaxWCETFactor: 4.0},
	{Name: "canneal", CPUFrac: 0.32, MissInflation: 3.1, WorkingSet: 26, Gamma: 0.6, BWSat: 3.1, BWRange: 10, MaxWCETFactor: 6.8},
	{Name: "dedup", CPUFrac: 0.40, MissInflation: 2.8, WorkingSet: 20, Gamma: 0.7, BWSat: 2.7, BWRange: 8, MaxWCETFactor: 5.2},
	{Name: "facesim", CPUFrac: 0.36, MissInflation: 2.9, WorkingSet: 22, Gamma: 0.6, BWSat: 2.9, BWRange: 9, MaxWCETFactor: 5.8},
	{Name: "ferret", CPUFrac: 0.43, MissInflation: 2.6, WorkingSet: 18, Gamma: 0.7, BWSat: 2.5, BWRange: 8, MaxWCETFactor: 4.5},
	{Name: "fluidanimate", CPUFrac: 0.38, MissInflation: 2.8, WorkingSet: 20, Gamma: 0.7, BWSat: 2.9, BWRange: 9, MaxWCETFactor: 5.5},
	{Name: "freqmine", CPUFrac: 0.48, MissInflation: 2.5, WorkingSet: 17, Gamma: 0.7, BWSat: 2.3, BWRange: 7, MaxWCETFactor: 4.1},
	{Name: "raytrace", CPUFrac: 0.62, MissInflation: 2.1, WorkingSet: 14, Gamma: 0.8, BWSat: 2.1, BWRange: 6, MaxWCETFactor: 3.4},
	{Name: "streamcluster", CPUFrac: 0.30, MissInflation: 3.2, WorkingSet: 24, Gamma: 0.6, BWSat: 3.3, BWRange: 10, MaxWCETFactor: 7.5},
	{Name: "swaptions", CPUFrac: 0.93, MissInflation: 1.4, WorkingSet: 3, Gamma: 1.0, BWSat: 1.3, BWRange: 2, MaxWCETFactor: 1.9},
	{Name: "vips", CPUFrac: 0.42, MissInflation: 2.7, WorkingSet: 18, Gamma: 0.7, BWSat: 2.7, BWRange: 8, MaxWCETFactor: 4.8},
	{Name: "x264", CPUFrac: 0.45, MissInflation: 2.6, WorkingSet: 17, Gamma: 0.7, BWSat: 2.5, BWRange: 7, MaxWCETFactor: 4.4},
}

// ByName returns the named benchmark profile.
func ByName(name string) (Benchmark, error) {
	for _, b := range All {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("parsec: unknown benchmark %q", name)
}

// Names returns all benchmark names in suite order.
func Names() []string {
	out := make([]string, len(All))
	for i, b := range All {
		out[i] = b.Name
	}
	return out
}

// missFactor returns mu(c), the miss inflation with c cache partitions.
// c = 0 models a disabled cache: mu(0) = MissInflation.
func (bm Benchmark) missFactor(c int) float64 {
	if float64(c) >= bm.WorkingSet {
		return 1
	}
	frac := (bm.WorkingSet - float64(c)) / bm.WorkingSet
	// Here, in Raw and in Profile the explicit conversion rounds the
	// product before the add: the Go spec lets a compiler fuse x*y + z
	// into one FMA otherwise, which arm64's compiler does.
	return 1 + float64((bm.MissInflation-1)*math.Pow(frac, bm.Gamma))
}

// bwFactor returns lambda(b), the stall inflation with b BW partitions:
// BWSat at b = 1, decaying linearly to 1 at b = BWRange.
func (bm Benchmark) bwFactor(b int) float64 {
	if float64(b) >= bm.BWRange || bm.BWRange <= 1 {
		return 1
	}
	return 1 + (bm.BWSat-1)*(bm.BWRange-float64(b))/(bm.BWRange-1)
}

// Raw returns the un-normalized execution-time factor r(c,b). c may be 0
// (cache disabled); b must be positive.
func (bm Benchmark) Raw(c, b int) float64 {
	if b <= 0 {
		panic("parsec: Raw with non-positive bandwidth allocation")
	}
	return bm.CPUFrac + float64((1-bm.CPUFrac)*bm.missFactor(c)*bm.bwFactor(b))
}

// Profile returns the benchmark's slowdown table on the platform:
// s(c,b) = r(c,b) / r(C,B), so s is 1 at the full allocation and monotone
// non-increasing in both resources. Each cell is Raw(c,b) / Raw(C,B) bit
// for bit: the same expression, with mu(c) — the one math.Pow — computed
// once per cache column instead of once per cell.
func (bm Benchmark) Profile(p model.Platform) *model.ResourceTable {
	if p.Bmin <= 0 {
		panic("parsec: Raw with non-positive bandwidth allocation")
	}
	ref := bm.Raw(p.C, p.B)
	t := model.NewResourceTableFor(p)
	for c := p.Cmin; c <= p.C; c++ {
		mu := bm.missFactor(c)
		for b := p.Bmin; b <= p.B; b++ {
			t.Set(c, b, (bm.CPUFrac+float64((1-bm.CPUFrac)*mu*bm.bwFactor(b)))/ref)
		}
	}
	return t
}

// MaxSlowdown returns s^max on the platform: the execution-time ratio
// between the worst configuration the paper measures (cache disabled,
// worst-case bandwidth) and the platform's full allocation. The
// cache-disabled factor is the benchmark's MaxWCETFactor (calibrated on the
// 20-partition reference machine); it is floored at the worst allocatable
// configuration so e^max can never undercut a reachable allocation.
func (bm Benchmark) MaxSlowdown(p model.Platform) float64 {
	worst := bm.Raw(p.Cmin, p.Bmin)
	if bm.MaxWCETFactor > worst {
		worst = bm.MaxWCETFactor
	}
	return worst / bm.Raw(p.C, p.B)
}

// WCETTable builds a task WCET table on the platform from a reference WCET
// (the execution time under the full allocation): e(c,b) = eRef * s(c,b).
func (bm Benchmark) WCETTable(p model.Platform, eRef float64) *model.ResourceTable {
	return bm.Profile(p).Scale(eRef)
}
