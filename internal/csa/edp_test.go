package csa

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEDPSBFRecoversPeriodicModel(t *testing.T) {
	// With delta = pi, EDP is exactly the plain periodic resource model.
	f := func(piRaw, thetaRaw, tRaw uint16) bool {
		pi := float64(piRaw%100) + 1
		theta := float64(thetaRaw%1000) / 1000 * pi
		tt := float64(tRaw) / 7
		return math.Abs(EDPSBF(pi, theta, pi, tt)-SBF(pi, theta, tt)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEDPSBFDominatesPeriodicModel(t *testing.T) {
	// Tighter deadlines only help: EDP supply with delta < pi is at least
	// the periodic-model supply.
	f := func(piRaw, thetaRaw, dRaw, tRaw uint16) bool {
		pi := float64(piRaw%100) + 1
		theta := float64(thetaRaw%1000) / 1000 * pi
		delta := theta + float64(dRaw%1000)/1000*(pi-theta)
		tt := float64(tRaw) / 7
		return EDPSBF(pi, theta, delta, tt) >= SBF(pi, theta, tt)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEDPSBFKnownValues(t *testing.T) {
	// Omega = (10, 4, 4): blackout = 10 + 4 - 8 = 6; then 4 units arrive
	// contiguously.
	cases := []struct{ t, want float64 }{
		{6, 0},
		{8, 2},
		{10, 4},
		{12, 4}, // gap until the next period's chunk
		{16, 4},
		{18, 6},
		{20, 8},
	}
	for _, c := range cases {
		if got := EDPSBF(10, 4, 4, c.t); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("EDPSBF(10,4,4,%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestEDPSBFMonotoneInT(t *testing.T) {
	prev := 0.0
	for tt := 0.0; tt <= 100; tt += 0.5 {
		cur := EDPSBF(10, 4, 6, tt)
		if cur < prev-1e-9 {
			t.Fatalf("EDP sbf decreased at t=%v", tt)
		}
		prev = cur
	}
}

func TestMinBudgetEDPOnTheMotivatingExample(t *testing.T) {
	// For the motivating task (10, 1) with resource period 10, the plain
	// periodic model needs theta = 5.5 (bandwidth 0.55). Bandwidth-optimal
	// EDP (delta = theta) pins the supply to a deterministic slot per
	// period and needs exactly theta = 1 — zero overhead for a
	// matched-period task. That deterministic slot is precisely what
	// vC2M's well-regulated VCPUs realize inside an actual hypervisor
	// (Theorem 2); the EDP interface is the analysis-side view of it.
	periodic, ok := MinBudgetForDemand(10, []float64{10}, []float64{1}, nil)
	if !ok {
		t.Fatal("periodic infeasible")
	}
	edp, ok := MinBudgetEDPForDemand(10, []float64{10}, []float64{1})
	if !ok {
		t.Fatal("EDP infeasible")
	}
	if edp >= periodic {
		t.Errorf("EDP budget %v not below periodic %v", edp, periodic)
	}
	if math.Abs(edp-1.0) > 1e-3 {
		t.Errorf("EDP budget = %v, want 1.0 (zero overhead for a matched period)", edp)
	}
}

func TestMinBudgetEDPOverheadRemainsForMismatchedPeriods(t *testing.T) {
	// With non-harmonic demand the pinned slot cannot align with every
	// deadline: tasks (10,1) and (15,1) have utilization 1/10 + 1/15 =
	// 0.1667, but the EDP budget with period 10 must cover dbf(15) = 2
	// within one slot: theta = 2, bandwidth 0.2 > 0.1667. EDP *reduces*
	// the overhead; removing it in general needs vC2M's harmonic
	// well-regulated construction or flattening.
	cps := []float64{10, 15, 20, 30}
	dem := []float64{1, 2, 3, 5}
	edp, ok := MinBudgetEDPForDemand(10, cps, dem)
	if !ok {
		t.Fatal("EDP infeasible")
	}
	util := 1.0/10 + 1.0/15
	if edp/10 <= util+1e-6 {
		t.Errorf("EDP bandwidth %v at or below utilization %v — mismatched periods must cost something",
			edp/10, util)
	}
	periodic, ok := MinBudgetForDemand(10, cps, dem, nil)
	if !ok {
		t.Fatal("periodic infeasible")
	}
	if edp >= periodic {
		t.Errorf("EDP budget %v not below periodic %v", edp, periodic)
	}
}

func TestMinBudgetEDPInfeasible(t *testing.T) {
	if _, ok := MinBudgetEDPForDemand(10, []float64{10}, []float64{11}); ok {
		t.Error("demand above interval accepted")
	}
	if _, ok := MinBudgetEDPForDemand(0, []float64{10}, []float64{1}); ok {
		t.Error("non-positive period accepted")
	}
}

func TestEDPZeroCases(t *testing.T) {
	if EDPSBF(10, 0, 5, 100) != 0 {
		t.Error("zero budget should supply nothing")
	}
	if EDPSBF(10, 4, 4, 0) != 0 {
		t.Error("zero interval should supply nothing")
	}
}

func TestMinBudgetEDPIsMinimal(t *testing.T) {
	// The closed-form EDP budget satisfies every checkpoint, and a budget
	// smaller by a relative 1e-7 violates at least one.
	f := func(piRaw uint16, raw [4]uint16) bool {
		pi := float64(piRaw%200)/4 + 0.5
		cps := make([]float64, len(raw))
		dem := make([]float64, len(raw))
		for i, r := range raw {
			cps[i] = float64(i+1) * pi * 0.6
			dem[i] = (float64(r%1000)/1000*0.99 + 0.01) * cps[i]
		}
		theta, ok := MinBudgetEDPForDemand(pi, cps, dem)
		if !ok {
			return false
		}
		smaller := theta * (1 - 1e-7)
		violated := false
		for i, tt := range cps {
			if EDPSBF(pi, theta, theta, tt) < dem[i]-1e-9 {
				return false
			}
			if EDPSBF(pi, smaller, smaller, tt) < dem[i] {
				violated = true
			}
		}
		return violated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
