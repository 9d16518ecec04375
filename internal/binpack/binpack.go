// Package binpack provides the best-fit decreasing bin packing the
// baseline solutions in the paper's evaluation use to pack VCPUs onto
// cores.
//
// Items are abstract: the caller supplies sizes, and capacity is 1.0 by
// convention (utilization packing). The packing returns, for each item, the
// index of the bin it was placed in, or reports failure when an item fits in
// no bin.
package binpack

import (
	"sort"
)

// Result describes a packing.
type Result struct {
	// Assign maps item index -> bin index, or -1 if the item did not fit.
	Assign []int
	// Loads holds the total size placed in each bin.
	Loads []float64
	// OK reports whether every item was placed.
	OK bool
}

// PackDecreasing places items of the given sizes into nbins bins of the
// given capacity with best-fit decreasing: items are considered by
// decreasing size (ties broken by original index, so the result is
// deterministic), each goes to the feasible bin with the least remaining
// capacity, and assignments are reported in the original item order.
// Sizes must be non-negative; an item larger than capacity makes the
// packing fail (its Assign entry is -1) but remaining items are still
// placed.
func PackDecreasing(sizes []float64, nbins int, capacity float64) Result {
	order := make([]int, len(sizes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if sizes[order[a]] != sizes[order[b]] { //vc2m:floateq exact tie-break keeps the sort a strict weak order
			return sizes[order[a]] > sizes[order[b]]
		}
		return order[a] < order[b]
	})
	loads := make([]float64, nbins)
	assign := make([]int, len(sizes))
	ok := true
	for _, idx := range order {
		bin := bestFit(loads, sizes[idx], capacity)
		if bin < 0 {
			assign[idx] = -1
			ok = false
			continue
		}
		assign[idx] = bin
		loads[bin] += sizes[idx]
	}
	return Result{Assign: assign, Loads: loads, OK: ok}
}

// bestFit returns the feasible bin with the largest load (the tightest
// fit; lowest index on ties), or -1 if the item fits in no bin. A small
// epsilon absorbs float accumulation error so that items that exactly fill
// a bin are accepted.
func bestFit(loads []float64, size, capacity float64) int {
	const eps = 1e-9
	best := -1
	for b, load := range loads {
		if load+size > capacity+eps {
			continue
		}
		if best == -1 || load > loads[best] {
			best = b
		}
	}
	return best
}
