package csa

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSBFZeroCases(t *testing.T) {
	if math.Float64bits(SBF(10, 0, 100)) != 0 {
		t.Error("zero budget should supply nothing")
	}
	if math.Float64bits(SBF(10, 5, 0)) != 0 {
		t.Error("zero interval should supply nothing")
	}
	if math.Float64bits(SBF(10, 5, -3)) != 0 {
		t.Error("negative interval should supply nothing")
	}
	if math.Float64bits(SBF(10, 5, 5)) != 0 {
		t.Error("interval inside blackout should supply nothing")
	}
}

func TestSBFDedicatedCore(t *testing.T) {
	// theta = pi supplies the whole interval.
	for _, tt := range []float64{0.5, 1, 7, 10, 23, 100} {
		if got := SBF(10, 10, tt); math.Abs(got-tt) > 1e-9 {
			t.Errorf("SBF(10,10,%v) = %v, want %v", tt, got, tt)
		}
	}
}

func TestSBFKnownValues(t *testing.T) {
	// Gamma = (10, 5.5): blackout = 4.5, so supply starts at t = 9
	// (2*(pi-theta)) and reaches 1 at t = 10 — the paper's worked example.
	cases := []struct{ pi, theta, t, want float64 }{
		{10, 5.5, 9, 0},
		{10, 5.5, 10, 1},
		{10, 5.5, 14.5, 5.5},
		{10, 5.5, 19, 5.5},  // second blackout
		{10, 5.5, 20, 6.5},  // second period begins supplying
		{10, 5.5, 24.5, 11}, // two full budgets
		{4, 2, 2, 0},
		{4, 2, 4, 0},
		{4, 2, 5, 1},
		{4, 2, 6, 2},
		{4, 2, 8, 2},
		{4, 2, 10, 4},
	}
	for _, c := range cases {
		if got := SBF(c.pi, c.theta, c.t); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("SBF(%v,%v,%v) = %v, want %v", c.pi, c.theta, c.t, got, c.want)
		}
	}
}

func TestSBFClampsOversizedBudget(t *testing.T) {
	if got := SBF(10, 15, 7); math.Abs(got-7) > 1e-9 {
		t.Errorf("SBF with theta > pi should behave as dedicated: got %v, want 7", got)
	}
}

func TestSBFMonotoneInT(t *testing.T) {
	f := func(piRaw, thetaRaw, t1Raw, t2Raw uint16) bool {
		pi := float64(piRaw%100) + 1
		theta := float64(thetaRaw%100) / 100 * pi
		t1 := float64(t1Raw) / 10
		t2 := t1 + float64(t2Raw)/10
		return SBF(pi, theta, t1) <= SBF(pi, theta, t2)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSBFMonotoneInTheta(t *testing.T) {
	f := func(piRaw, aRaw, bRaw, tRaw uint16) bool {
		pi := float64(piRaw%100) + 1
		a := float64(aRaw%1000) / 1000 * pi
		b := a + float64(bRaw%1000)/1000*(pi-a)
		tt := float64(tRaw) / 10
		return SBF(pi, a, tt) <= SBF(pi, b, tt)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinBudgetPaperExample(t *testing.T) {
	// The paper's motivating example: taskset {(p=10, e=1)} on a periodic
	// resource with period 10 needs a minimum budget of 5.5 — 55x the
	// taskset utilization of 0.1.
	theta, ok := MinBudgetForDemand(10, []float64{10}, []float64{1}, nil)
	if !ok {
		t.Fatal("feasible instance reported infeasible")
	}
	if math.Abs(theta-5.5) > 1e-9 {
		t.Errorf("minimum budget = %v, want 5.5", theta)
	}
}

func TestMinBudgetFullLoad(t *testing.T) {
	// Demand equal to the interval requires a dedicated core.
	theta, ok := MinBudgetForDemand(10, []float64{10}, []float64{10}, nil)
	if !ok {
		t.Fatal("dedicated-core demand reported infeasible")
	}
	if math.Abs(theta-10) > 1e-4 {
		t.Errorf("minimum budget = %v, want 10", theta)
	}
}

func TestMinBudgetInfeasible(t *testing.T) {
	if _, ok := MinBudgetForDemand(10, []float64{10}, []float64{10.5}, nil); ok {
		t.Error("demand above interval length must be infeasible")
	}
}

func TestMinBudgetZeroDemand(t *testing.T) {
	theta, ok := MinBudgetForDemand(10, []float64{10, 20}, []float64{0, 0}, nil)
	if !ok || theta > 0 {
		t.Errorf("zero demand should need zero budget, got %v ok=%v", theta, ok)
	}
}

func TestMinBudgetInvalidPeriod(t *testing.T) {
	if _, ok := MinBudgetForDemand(0, []float64{10}, []float64{1}, nil); ok {
		t.Error("non-positive resource period must be rejected")
	}
}

func TestMinBudgetIsMinimal(t *testing.T) {
	// The returned budget satisfies all checkpoints, and a budget smaller
	// by a relative 1e-7 violates at least one: the closed form is exact.
	f := func(eRaw, pRaw uint16) bool {
		p := float64(pRaw%90) + 10
		e := (float64(eRaw%900)/1000 + 0.05) * p // demand within capacity
		cps := []float64{p, 2 * p, 3 * p}
		dem := []float64{e, 2 * e, 3 * e}
		theta, ok := MinBudgetForDemand(p, cps, dem, nil)
		if !ok {
			return false
		}
		for i, t := range cps {
			if SBF(p, theta, t) < dem[i]-1e-9 {
				return false // returned budget must be feasible
			}
		}
		smaller := theta * (1 - 1e-7)
		for i, t := range cps {
			if SBF(p, smaller, t) < dem[i] {
				return true // minimality witnessed
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMinBudgetMonotoneInDemand(t *testing.T) {
	f := func(eRaw, extraRaw uint16) bool {
		p := 50.0
		e1 := float64(eRaw%400)/1000*p + 0.01
		e2 := e1 + float64(extraRaw%100)/1000*p
		t1, ok1 := MinBudgetForDemand(p, []float64{p}, []float64{e1}, nil)
		t2, ok2 := MinBudgetForDemand(p, []float64{p}, []float64{e2}, nil)
		if !ok1 || !ok2 {
			return false
		}
		return t1 <= t2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMinBudgetStartIndependent(t *testing.T) {
	// The search walks the checkpoints cyclically from a start index and
	// skips those the running maximum satisfies; the result must not
	// depend on where the walk starts.
	f := func(piRaw uint16, raw [6]uint16) bool {
		pi := float64(piRaw%200)/4 + 0.5
		cps := make([]float64, len(raw))
		dem := make([]float64, len(raw))
		for i, r := range raw {
			cps[i] = float64(i+1) * pi * 0.75
			dem[i] = float64(r%1000) / 1000 * cps[i]
		}
		want, wantOK, _, _, _ := minBudgetForDemand(pi, cps, dem, 0)
		for start := range cps {
			got, ok, _, _, _ := minBudgetForDemand(pi, cps, dem, start)
			if ok != wantOK || math.Abs(got-want) > 1e-12*pi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
