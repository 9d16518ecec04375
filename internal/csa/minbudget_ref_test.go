package csa_test

import (
	"fmt"
	"math"
	"testing"

	"vc2m/internal/bench"
	"vc2m/internal/csa"
	"vc2m/internal/model"
	"vc2m/internal/rngutil"
	"vc2m/internal/workload"
)

// checkAgainstBisection compares csa.MinBudgetForDemand with the retired
// bisection (bench.BisectMinBudget): the verdicts must be identical and
// the budgets within bench.BudgetEps. A feasible budget must also satisfy
// every checkpoint and be minimal — shrinking it by a relative 1e-7 must
// violate some checkpoint.
func checkAgainstBisection(pi float64, cps, dem []float64) error {
	theta, ok := csa.MinBudgetForDemand(pi, cps, dem, nil)
	ref, refOK := bench.BisectMinBudget(pi, cps, dem)
	if ok != refOK {
		return fmt.Errorf("verdict %v, bisection %v (budget %v vs %v)", ok, refOK, theta, ref)
	}
	if !ok {
		return nil
	}
	if math.Abs(theta-ref) > bench.BudgetEps {
		return fmt.Errorf("budget %v, bisection %v: |diff| %v > %v", theta, ref, math.Abs(theta-ref), bench.BudgetEps)
	}
	if theta < 0 || theta > pi {
		return fmt.Errorf("budget %v outside [0, %v]", theta, pi)
	}
	for i, t := range cps {
		if dem[i] > 0 && csa.SBF(pi, theta, t) < dem[i]-1e-9 {
			return fmt.Errorf("budget %v infeasible at t=%v: sbf %v < demand %v", theta, t, csa.SBF(pi, theta, t), dem[i])
		}
	}
	if theta <= 0 {
		return nil
	}
	smaller := theta * (1 - 1e-7)
	for i, t := range cps {
		if csa.SBF(pi, smaller, t) < dem[i] {
			return nil
		}
	}
	return fmt.Errorf("budget %v not minimal: %v still satisfies every checkpoint", theta, smaller)
}

// TestMinBudgetMatchesBisection is the differential oracle for the closed
// form over random (period, checkpoints, demand) vectors, weighted toward
// the edge cases: checkpoints on multiples of the period (where the supply
// pieces meet), full-interval demand d = t, vanishing demand, zero demand,
// and demand just above t (inside and beyond the 1e-9 tolerance).
func TestMinBudgetMatchesBisection(t *testing.T) {
	const vectors = 100000
	rng := rngutil.New(20190602)
	cps := make([]float64, 0, 8)
	dem := make([]float64, 0, 8)
	for v := 0; v < vectors; v++ {
		pi := rng.Uniform(0.5, 200)
		cps, dem = cps[:0], dem[:0]
		for m := 1 + rng.Intn(8); m > 0; m-- {
			var tt float64
			if rng.Intn(3) == 0 {
				tt = float64(1+rng.Intn(20)) * pi
			} else {
				tt = rng.Uniform(0.05, 20) * pi
			}
			var d float64
			switch rng.Intn(8) {
			case 0:
				d = tt
			case 1:
				d = tt * 1e-9 * rng.Float64()
			case 2:
				d = 0
			case 3:
				d = tt + 5e-10
			case 4:
				if rng.Intn(20) == 0 {
					d = tt * (1 + 1e-3*rng.Float64())
				} else {
					d = tt * rng.Float64()
				}
			default:
				d = tt * rng.Float64()
			}
			cps = append(cps, tt)
			dem = append(dem, d)
		}
		if err := checkAgainstBisection(pi, cps, dem); err != nil {
			t.Fatalf("vector %d (pi=%v cps=%v dem=%v): %v", v, pi, cps, dem, err)
		}
	}
}

// TestExistingVCPUMatchesBisection checks the full (c,b) budget tables of
// csa.ExistingVCPU — whose searches start from the previous candidate's
// decisive checkpoint — against the bisection applied candidate by
// candidate, on seeded served-shape workloads.
func TestExistingVCPUMatchesBisection(t *testing.T) {
	plat := model.PlatformA
	gen := rngutil.New(7)
	for s := 0; s < 6; s++ {
		sys, err := workload.Generate(workload.Config{Platform: plat, TargetRefUtil: 1.2, Dist: workload.Uniform}, gen.Split())
		if err != nil {
			t.Fatal(err)
		}
		for _, vm := range sys.VMs {
			v, _, err := csa.ExistingVCPU(vm.Tasks, 0, plat)
			if err != nil {
				t.Fatal(err)
			}
			demand, err := csa.NewDemand(csa.TaskPeriods(vm.Tasks))
			if err != nil {
				t.Fatal(err)
			}
			cps := demand.Checkpoints()
			for c := plat.Cmin; c <= plat.C; c++ {
				for b := plat.Bmin; b <= plat.B; b++ {
					ref, ok := bench.BisectMinBudget(v.Period, cps, demand.DBF(csa.TaskWCETs(vm.Tasks, c, b)))
					got := v.Budget.At(c, b)
					if ok != (got <= v.Period) {
						t.Fatalf("system %d %s (%d,%d): budget %v vs period %v, bisection feasible %v", s, vm.ID, c, b, got, v.Period, ok)
					}
					if ok && math.Abs(got-ref) > bench.BudgetEps {
						t.Fatalf("system %d %s (%d,%d): budget %v, bisection %v", s, vm.ID, c, b, got, ref)
					}
				}
			}
		}
	}
}

// FuzzMinBudget checks the closed form against the bisection on
// arbitrary three-checkpoint vectors: the period is folded into
// [0.01, 1000), each checkpoint into [0.001, 50 periods) (snapped up to a
// multiple of the period when its bit of snap is set), and each demand
// into [0, 1.001] times its checkpoint, with fractions below 1e-15 taken
// as zero demand.
func FuzzMinBudget(f *testing.F) {
	f.Add(10.0, 10.0, 20.0, 30.0, 0.1, 0.0, 0.0, uint8(0))      // the paper's (10,1) task
	f.Add(10.0, 10.0, 15.0, 20.0, 1.0, 0.5, 0.25, uint8(0))     // d = t
	f.Add(50.0, 100.0, 200.0, 350.0, 1e-12, 0.3, 0.2, uint8(7)) // multiples of pi, d -> 0
	f.Add(3.0, 7.0, 11.0, 13.0, 1.0005, 0.5, 0.5, uint8(2))     // infeasible
	f.Add(0.7, 0.3, 5.2, 9.9, 0.9, 0.95, 0.99, uint8(0))        // t < pi
	f.Fuzz(func(t *testing.T, pi, t0, t1, t2, f0, f1, f2 float64, snap uint8) {
		for _, x := range []float64{pi, t0, t1, t2, f0, f1, f2} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Skip()
			}
		}
		pi = math.Max(0.01, math.Mod(math.Abs(pi), 1000))
		cps := make([]float64, 3)
		dem := make([]float64, 3)
		for j, raw := range [][2]float64{{t0, f0}, {t1, f1}, {t2, f2}} {
			tt := math.Max(1e-3, math.Mod(math.Abs(raw[0]), 50*pi))
			if snap&(1<<j) != 0 {
				tt = math.Ceil(tt/pi) * pi
			}
			frac := math.Mod(math.Abs(raw[1]), 1.001)
			if frac < 1e-15 {
				frac = 0
			}
			cps[j], dem[j] = tt, frac*tt
		}
		if err := checkAgainstBisection(pi, cps, dem); err != nil {
			t.Fatalf("pi=%v cps=%v dem=%v: %v", pi, cps, dem, err)
		}
	})
}
