package csa

import (
	"math"
)

// This file implements the Explicit Deadline Periodic (EDP) resource model
// of Easwaran, Anand & Lee [4] ("Compositional Analysis Framework Using
// EDP Resource Models"), the related-work interface representation the
// paper contrasts with: EDP reduces the abstraction overhead of the plain
// periodic resource model by delivering the budget Theta within an
// explicit deadline Delta <= Pi, which shrinks the worst-case supply
// blackout from 2(Pi - Theta) to Pi + Delta - 2*Theta. vC2M's approaches
// (flattening, well-regulated VCPUs) remove the overhead entirely; the
// comparison tests quantify the gap between "reduced" and "removed".

// EDPSBF returns the supply-bound function of the EDP resource model
// Omega = (pi, theta, delta): the minimum supply in any interval of length
// t when theta units are guaranteed within delta of each period start.
// Delta must satisfy theta <= delta <= pi; delta = pi recovers the plain
// periodic resource model.
func EDPSBF(pi, theta, delta, t float64) float64 {
	if theta <= 0 || t <= 0 {
		return 0
	}
	if theta > pi {
		theta = pi
	}
	if delta < theta {
		delta = theta
	}
	if delta > pi {
		delta = pi
	}
	// Worst case: the interval starts right after an earliest-possible
	// supply chunk, the next chunk arrives latest (ending at delta), so
	// the blackout is pi + delta - 2*theta; thereafter theta-sized chunks
	// repeat with period pi.
	blackout := pi + delta - 2*theta
	if t <= blackout {
		return 0
	}
	k := math.Floor((t - blackout) / pi)
	partial := math.Min(theta, t-blackout-k*pi)
	if partial < 0 {
		partial = 0
	}
	return k*theta + partial
}

// MinBudgetEDPForDemand returns the minimum budget theta such that the
// EDP resource (pi, theta, delta) with the *tightest* deadline delta =
// theta satisfies the demand at every checkpoint. Delta = Theta is the
// bandwidth-optimal EDP configuration: the supply arrives as one
// contiguous chunk per period, minimizing the blackout to pi - theta.
// The boolean result is false when even a dedicated supply cannot meet
// the demand. Each checkpoint's budget has a closed form
// (minEDPBudgetAt); a final EDPSBF pass guards it.
func MinBudgetEDPForDemand(pi float64, checkpoints, demands []float64) (float64, bool) {
	if pi <= 0 {
		return 0, false
	}
	var need float64
	for i, t := range checkpoints {
		d := demands[i]
		if d <= 0 {
			continue
		}
		if d > t+1e-9 {
			return 0, false
		}
		if th := minEDPBudgetAt(pi, t, d); th > need {
			need = th
		}
	}
	for i, t := range checkpoints {
		if demands[i] > 0 && EDPSBF(pi, need, need, t) < demands[i]-1e-9 {
			return 0, false
		}
	}
	return need, true
}

// minEDPBudgetAt returns the least theta in [0, pi] with EDPSBF(pi, theta,
// theta, t) >= d, for 0 < d <= t. With t = n*pi + r (0 <= r < pi) and
// g = pi - r, the supply is n*theta for theta <= g and (n+1)*theta - g
// above, continuous at n*g; the piece holding d is inverted directly.
func minEDPBudgetAt(pi, t, d float64) float64 {
	n := math.Floor(t / pi)
	g := pi - (t - n*pi)
	theta := (d + g) / (n + 1)
	if d <= n*g {
		theta = d / n
	}
	return math.Min(theta, pi)
}
