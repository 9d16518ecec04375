package bench

import (
	"fmt"
	"math"

	"vc2m/internal/csa"
	"vc2m/internal/model"
	"vc2m/internal/rngutil"
	"vc2m/internal/workload"
)

// BudgetEps is the absolute tolerance (in ms) of BisectMinBudget: the
// returned budget lies within BudgetEps above the exact minimum. One
// nanosecond of budget is far below scheduler resolution.
const BudgetEps = 1e-6

// BisectMinBudget is the reference minimum-budget search that
// csa.MinBudgetForDemand's closed form replaced: per checkpoint, up to 64
// bisection steps on SBF (monotone in theta), the maximum over checkpoints
// nudged up by BudgetEps/2 onto the feasible side, then one all-checkpoint
// verification. It is kept for the differential tests and the
// csa/min-budget benchmark, not for production use.
func BisectMinBudget(pi float64, checkpoints, demands []float64) (float64, bool) {
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
		lo, hi := 0.0, pi
		for iter := 0; iter < 64 && hi-lo > BudgetEps/4; iter++ {
			mid := (lo + hi) / 2
			if csa.SBF(pi, mid, t) >= d {
				hi = mid
			} else {
				lo = mid
			}
		}
		if csa.SBF(pi, hi, t) < d-1e-9 {
			return 0, false
		}
		if hi > need {
			need = hi
		}
	}
	need = math.Min(pi, need+BudgetEps/2)
	for i, t := range checkpoints {
		if demands[i] > 0 && csa.SBF(pi, need, t) < demands[i]-1e-9 {
			return 0, false
		}
	}
	return need, true
}

// benchCSAMinBudget measures the existing CSA's interface derivation: the
// full (c,b) budget table of csa.ExistingVCPU, which dominates the
// existing-CSA curves (Figure 4) and cold existing-CSA admission.
//
// Optimized path: csa.ExistingVCPU, the closed-form per-checkpoint inverse
// of SBF with skips against the running maximum. Reference path: the same
// demand evaluation per candidate with BisectMinBudget as the search.
func benchCSAMinBudget(opts Options) (Result, error) {
	plat := model.PlatformA
	systems, repeats := 4, 10
	if opts.Quick {
		systems, repeats = 1, 1
	}

	// Each VM of a few seeded platform-A systems at reference utilization
	// 1.2 (the served cold-existing shape) is derived as one VCPU, so the
	// tables mix feasible budgets with infeasible (pseudo-budget) entries.
	gen := rngutil.New(12289)
	var groups [][]*model.Task
	for s := 0; s < systems; s++ {
		sys, err := workload.Generate(workload.Config{
			Platform:      plat,
			TargetRefUtil: 1.2,
			Dist:          workload.Uniform,
		}, gen.Split())
		if err != nil {
			return Result{}, err
		}
		for _, vm := range sys.VMs {
			groups = append(groups, vm.Tasks)
		}
	}
	candidates := (plat.C - plat.Cmin + 1) * (plat.B - plat.Bmin + 1)

	// Both paths sum every feasible budget and count the feasible entries
	// (infeasible ones carry a pseudo-budget above the period), so a
	// divergence fails the benchmark instead of silently timing different
	// work.
	var optSum float64
	var optFeasible int
	optimized := func() error {
		optSum, optFeasible = 0, 0
		for r := 0; r < repeats; r++ {
			for _, tasks := range groups {
				v, _, err := csa.ExistingVCPU(tasks, 0, plat)
				if err != nil {
					return err
				}
				for c := plat.Cmin; c <= plat.C; c++ {
					for b := plat.Bmin; b <= plat.B; b++ {
						if theta := v.Budget.At(c, b); theta <= v.Period {
							optSum += theta
							optFeasible++
						}
					}
				}
			}
		}
		return nil
	}
	var refSum float64
	var refFeasible int
	reference := func() error {
		refSum, refFeasible = 0, 0
		for r := 0; r < repeats; r++ {
			for _, tasks := range groups {
				periods := csa.TaskPeriods(tasks)
				demand, err := csa.NewDemand(periods)
				if err != nil {
					return err
				}
				pi := math.Inf(1)
				for _, p := range periods {
					pi = math.Min(pi, p)
				}
				pi /= 2 // ExistingVCPU's half-minimum-period rule
				cps := demand.Checkpoints()
				wcets := make([]float64, len(tasks))
				dem := make([]float64, len(cps))
				for c := plat.Cmin; c <= plat.C; c++ {
					for b := plat.Bmin; b <= plat.B; b++ {
						demand.DBFInto(dem, csa.TaskWCETsInto(wcets, tasks, c, b))
						if theta, ok := BisectMinBudget(pi, cps, dem); ok {
							refSum += theta
							refFeasible++
						}
					}
				}
			}
		}
		return nil
	}

	var runErr error
	optSecs := medianSeconds(opts.Runs, func() {
		if err := optimized(); err != nil {
			runErr = err
		}
	})
	refSecs := medianSeconds(opts.Runs, func() {
		if err := reference(); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		return Result{}, runErr
	}
	if optFeasible != refFeasible || math.Abs(optSum-refSum) > BudgetEps*float64(refFeasible) {
		return Result{}, fmt.Errorf("%w (feasible entries %d vs %d)",
			checksumMismatch("csa/min-budget", optSum, refSum), optFeasible, refFeasible)
	}

	ops := float64(len(groups) * candidates * repeats)
	value := throughput(ops, optSecs)
	ref := throughput(ops, refSecs)
	res := Result{
		Name:     "csa/min-budget",
		Metric:   "candidate_budgets_per_sec",
		Value:    value,
		Runs:     opts.Runs,
		Baseline: &Baseline{Name: "bisection", Value: ref},
		Notes: fmt.Sprintf("%d VCPUs from %d platform-%s systems at util 1.2, %d (c,b) candidates each x%d, %d/%d feasible",
			len(groups), systems, plat.Name, candidates, repeats, refFeasible, len(groups)*candidates*repeats),
	}
	if ref > 0 {
		res.Speedup = value / ref
	}
	return res, nil
}
