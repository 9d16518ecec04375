// Package csa implements the compositional scheduling analysis used by
// vC2M (Section 4 of the paper):
//
//   - the classical periodic resource model of Shin & Lee [13] — the
//     "existing CSA" used by the baseline solutions — with its supply-bound
//     function and minimum-budget computation for EDF;
//   - Theorem 1 ("flattening"): a task mapped alone onto a VCPU with a
//     synchronized release is schedulable with Pi = p and Theta(c,b) =
//     e(c,b), removing the abstraction overhead entirely;
//   - Theorem 2 ("overhead-free" analysis): a harmonic taskset is
//     EDF-schedulable on a well-regulated VCPU with Pi = min p_i and
//     Theta(c,b) = Pi * sum e_i(c,b)/p_i, i.e. a VCPU bandwidth equal to the
//     taskset's utilization;
//   - WCET/budget inflation hooks for intra-core preemption overhead [17].
//
// All times are in milliseconds, matching package model.
package csa

import (
	"math"

	"vc2m/internal/metrics"
)

// Counter names recorded by the metered analysis entry points. The
// dbf/sbf checkpoint-evaluation counters are the paper's Figure-4
// running-time gap made countable: the existing CSA evaluates demand and
// supply at every checkpoint of every (c,b) allocation, while the
// overhead-free analyses (Theorems 1 and 2) evaluate none. They count the
// analysis, not the machine work: a (c,b) cell that ExistingVCPUObs
// answers by reusing the previous solve (same WCETs, same start) counts
// the demand evaluation and search it reuses, so the counters do not
// depend on that reuse.
const (
	// MetricDBFEvals counts demand-bound evaluations, one per (checkpoint,
	// WCET-vector) pair.
	MetricDBFEvals = "csa.dbf.checkpoint_evals"
	// MetricSBFEvals counts the minimum-budget search's supply-bound
	// evaluations: the skip tests against the running maximum plus the
	// final feasibility verification.
	MetricSBFEvals = "csa.sbf.evals"
	// MetricMinBudgetCalls counts minimum-budget searches (one per (c,b)
	// allocation of every existing-CSA VCPU).
	MetricMinBudgetCalls = "csa.minbudget.calls"
	// MetricMinBudgetIters counts per-checkpoint closed-form solves across
	// all minimum-budget searches. The name predates the closed form, when
	// each solve was a bisection, and is kept for stable dashboards.
	MetricMinBudgetIters = "csa.minbudget.bisect_iters"
	// MetricExistingVCPUs counts VCPUs parameterized with the existing CSA.
	MetricExistingVCPUs = "csa.existing.vcpus"
)

// SBF returns the supply-bound function of the periodic resource model
// Gamma = (pi, theta): the minimum CPU time a periodic server with period pi
// and budget theta is guaranteed to supply in any interval of length t
// (Shin & Lee [13]). It is 0 for t <= pi-theta (the worst-case startup
// blackout spans up to 2(pi-theta)).
func SBF(pi, theta, t float64) float64 {
	if theta <= 0 || t <= 0 {
		return 0
	}
	if theta > pi {
		theta = pi
	}
	blackout := pi - theta
	if t <= blackout {
		return 0
	}
	k := math.Floor((t - blackout) / pi)
	// A plain compare rather than math.Max: identical for finite inputs,
	// without math.Max's NaN and signed-zero handling on the hot path.
	// The explicit conversions round each product before the add or
	// subtract: the Go spec lets a compiler fuse x*y + z into one FMA
	// otherwise, and the budget would then differ by architecture.
	// blackout+blackout is 2*blackout exactly, with no product to fuse
	// and no conversion to push SBF past the inlining budget.
	partial := t - (blackout + blackout) - float64(k*pi)
	if partial < 0 {
		partial = 0
	}
	supply := float64(k*theta) + partial
	if supply < 0 {
		return 0
	}
	return supply
}

// MinBudgetForDemand returns the minimum budget theta such that the
// periodic resource (pi, theta) satisfies dbf(t) <= sbf(t) at every
// checkpoint, where demands[i] is the EDF demand bound at checkpoints[i].
// The boolean result is false when no theta <= pi suffices (the taskset
// overloads a dedicated core). Checkpoints with zero demand are skipped.
//
// For fixed t, SBF is continuous, non-decreasing and piecewise linear in
// theta, so each checkpoint's minimum budget has a closed form
// (minBudgetAt) and the overall minimum is the maximum over checkpoints.
// The search effort (sbf evaluations and closed-form solves) is recorded
// on rec (nil-safe).
func MinBudgetForDemand(pi float64, checkpoints, demands []float64, rec *metrics.Recorder) (float64, bool) {
	theta, ok, _, sbfEvals, solves := minBudgetForDemand(pi, checkpoints, demands, 0)
	if rec != nil {
		rec.Inc(MetricMinBudgetCalls)
		rec.Add(MetricSBFEvals, sbfEvals)
		rec.Add(MetricMinBudgetIters, solves)
	}
	return theta, ok
}

// minBudgetForDemand is the shared implementation. It walks the
// checkpoints cyclically from index start (0, or an index a previous call
// on the same checkpoints returned), solving only those the running
// maximum does not already satisfy (one SBF call decides that), and
// returns the decisive index — the checkpoint that set the maximum, or
// the one that proved infeasibility. Starting a similar demand vector at
// the previous call's decisive index makes nearly every other checkpoint
// a skip. The maximum does not depend on the order. A final SBF pass over
// every checkpoint guards the closed form. Effort is tallied in plain
// locals so the disabled-metrics path pays nothing beyond integer
// increments.
func minBudgetForDemand(pi float64, checkpoints, demands []float64, start int) (theta float64, ok bool, decisive int, sbfEvals, solves int64) {
	if pi <= 0 {
		return 0, false, start, 0, 0
	}
	n := len(checkpoints)
	decisive = start
	for j := 0; j < n; j++ {
		i := start + j
		if i >= n {
			i -= n
		}
		d := demands[i]
		if d <= 0 {
			continue
		}
		t := checkpoints[i]
		// Even a dedicated core (theta = pi) supplies at most t by time t.
		if d > t+1e-9 {
			return 0, false, i, sbfEvals, solves
		}
		if theta > 0 {
			sbfEvals++
			if SBF(pi, theta, t) >= d {
				continue
			}
		}
		solves++
		if th := minBudgetAt(pi, t, d); th > theta {
			theta, decisive = th, i
		}
	}
	for i, t := range checkpoints {
		if d := demands[i]; d > 0 {
			sbfEvals++
			if SBF(pi, theta, t) < d-1e-9 {
				return 0, false, decisive, sbfEvals, solves
			}
		}
	}
	return theta, true, decisive, sbfEvals, solves
}

// minBudgetAt returns the least theta in [0, pi] with SBF(pi, theta, t) >=
// d, for 0 < d <= t (a d barely above t yields pi). Write t = n*pi + r
// with 0 <= r < pi and g = pi - r. As theta grows from 0 to pi, the
// blackout pi - theta passes g, where floor((t - blackout)/pi) steps from
// n-1 to n, so sbf is continuous and piecewise linear in theta:
//
//	theta in [0, g/2]:          sbf = (n-1)*theta
//	theta in [g/2, g]:          sbf = (n+1)*theta - g
//	theta in [g, (pi+g)/2]:     sbf = n*theta
//	theta in [(pi+g)/2, pi]:    sbf = (n+2)*theta - (pi+g)
//
// reaching (n-1)g/2, n*g, n(pi+g)/2 and t at the piece ends. The piece
// whose range holds d is inverted directly. For n <= 1 the leading pieces
// supply nothing and d > 0, so they are never chosen and no division by
// zero occurs.
func minBudgetAt(pi, t, d float64) float64 {
	n := math.Floor(t / pi)
	g := pi - (t - float64(n*pi)) // rounded product: no FMA, as in SBF
	var theta float64
	switch {
	case d <= (n-1)*g/2:
		theta = d / (n - 1)
	case d <= n*g:
		theta = (d + g) / (n + 1)
	case d <= n*(pi+g)/2:
		theta = d / n
	default:
		theta = (d + pi + g) / (n + 2)
	}
	if theta > pi {
		return pi
	}
	return theta
}
