package csa

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"vc2m/internal/metrics"
	"vc2m/internal/model"
	"vc2m/internal/obs"
	"vc2m/internal/provenance"
)

// ExistingVCPU computes a VCPU for the given taskset using the existing
// compositional analysis (the periodic resource model of Shin & Lee [13]):
// for each allocation (c,b), the budget Theta(c,b) is the minimum budget
// such that the periodic resource (Pi, Theta) satisfies the taskset's EDF
// demand at every checkpoint up to the hyperperiod.
//
// The VCPU period Pi is chosen as half the minimum task period, the
// standard rule of thumb in compositional scheduling: with Pi equal to the
// minimum period, every VCPU needs a bandwidth of at least (1+u)/2 >= 0.5
// to cover the supply blackout before the first task deadline, so any
// system with more VCPUs than twice the core count is trivially
// unschedulable; halving the period shrinks the blackout and leaves the
// abstraction overhead (still far above the overhead-free analysis, e.g.
// 2x for light tasksets) as the quantity under study. The paper's worked
// example (task (10,1) needing budget 5.5) corresponds to Pi equal to the
// task period and is exercised through MinBudget directly.
//
// Allocations with no feasible budget (the taskset's demand exceeds even a
// dedicated core) get a pseudo-budget Pi * max_t dbf(t)/t, which is
// strictly larger than Pi — so the schedulability test (bandwidth <= 1)
// still rejects them — while remaining finite and monotone in the WCETs, so
// that the hypervisor-level resource-allocation phase sees a gradient when
// it grants additional partitions. The boolean result is false when the
// budget is infeasible even under the full allocation (C,B), in which case
// the VCPU can never be scheduled.
func ExistingVCPU(tasks []*model.Task, index int, plat model.Platform) (*model.VCPU, bool, error) {
	return ExistingVCPUObs(tasks, index, plat, nil, nil, nil)
}

// ExistingVCPUObs is ExistingVCPU with instrumentation; each of rec, prov
// and sp may be nil, and none of them affects the derivation.
//
//   - rec receives the search effort: the dbf/sbf checkpoint evaluations
//     and minimum-budget searches behind the VCPU's budget table. These
//     counters make the existing CSA's running-time premium over the
//     overhead-free analyses (Figure 4) attributable: every (c,b)
//     allocation triggers a full demand evaluation plus a minimum-budget
//     search, while Theorems 1 and 2 need neither. A cell that reuses the
//     previous solve counts the effort of the search it reuses.
//   - prov receives the derived interface: the chosen period rule, the
//     budget at the full and minimum allocations, how many (c,b)
//     candidates were feasible, and the decisive demand checkpoint (the
//     time point with the least supply slack when feasible, the one with
//     the steepest demand when not), so reports can show why the existing
//     CSA priced the taskset the way it did.
//   - sp, an open csa.derive span owned by the caller, receives the same
//     cost drivers as attributes, so a span export explains why this stage
//     dominates the existing CSA's running time, plus the number of cells
//     that reused the previous solve ("reused").
func ExistingVCPUObs(tasks []*model.Task, index int, plat model.Platform, rec *metrics.Recorder, prov *provenance.Recorder, sp *obs.Span) (*model.VCPU, bool, error) {
	if len(tasks) == 0 {
		return nil, false, errors.New("csa: ExistingVCPU with no tasks")
	}
	periods := TaskPeriods(tasks)
	demand, err := NewDemand(periods)
	if err != nil {
		return nil, false, err
	}
	pi := periods[0]
	for _, p := range periods[1:] {
		if p < pi {
			pi = p
		}
	}
	pi /= 2

	budget := model.NewResourceTableFor(plat)
	cps := demand.Checkpoints()
	var dbfEvals, sbfEvals, searches, iters, reused int64
	// One WCET vector and one demand vector are reused across every
	// candidate (c,b) — this loop dominates the existing CSA's running time
	// (Figure 4), and per-candidate allocations used to dominate the loop.
	wcets := make([]float64, len(tasks))
	dem := make([]float64, len(cps))
	// When every WCET table has the budget's shape, one offset per cell
	// addresses all of them.
	sameShape := true
	for _, t := range tasks {
		sameShape = sameShape && t.WCET.SameShape(budget)
	}
	feasibleAllocs, totalAllocs := 0, 0
	// Demand changes little from one candidate to the next, so the
	// checkpoint that decided one budget usually decides the next: each
	// search starts there and most other checkpoints become skips.
	decisive := 0
	// Past a benchmark's saturation point its WCETs stop changing with c
	// or b, so most cells repeat the previous cell's inputs. The search is
	// a pure function of (pi, cps, demand, start), and the demand of the
	// WCET vector, so a cell whose WCETs equal the last solved cell's bit
	// for bit, searched from the same start, takes that solve's result and
	// effort as they are. solved holds that cell's WCET vector; lastStart
	// is -1 until the first solve.
	solved := make([]float64, len(tasks))
	lastStart := -1
	var (
		theta  float64 // the last solve's budget, or pseudo-budget when !ok
		ok     bool
		next   int   // the last solve's decisive index
		se, it int64 // the last solve's sbf evaluations and solves
	)
	for c := plat.Cmin; c <= plat.C; c++ {
		for b := plat.Bmin; b <= plat.B; b++ {
			off := budget.Offset(c, b)
			if sameShape {
				for i, t := range tasks {
					wcets[i] = t.WCET.AtOffset(off)
				}
			} else {
				TaskWCETsInto(wcets, tasks, c, b)
			}
			if decisive == lastStart && sameBits(wcets, solved) {
				reused++
			} else {
				demand.DBFInto(dem, wcets)
				theta, ok, next, se, it = minBudgetForDemand(pi, cps, dem, decisive)
				if !ok {
					theta = pseudoBudget(pi, cps, dem)
				}
				lastStart = decisive
				wcets, solved = solved, wcets
			}
			decisive = next
			dbfEvals += int64(len(cps))
			searches++
			sbfEvals += se
			iters += it
			totalAllocs++
			if ok {
				feasibleAllocs++
			}
			budget.Set(c, b, theta)
		}
	}
	if rec != nil {
		rec.Inc(MetricExistingVCPUs)
		rec.Add(MetricDBFEvals, dbfEvals)
		rec.Add(MetricSBFEvals, sbfEvals)
		rec.Add(MetricMinBudgetCalls, searches)
		rec.Add(MetricMinBudgetIters, iters)
	}
	if sp != nil {
		sp.SetInt("candidates", int64(totalAllocs))
		sp.SetInt("feasible", int64(feasibleAllocs))
		sp.SetInt("dbf_evals", dbfEvals)
		sp.SetInt("sbf_evals", sbfEvals)
		sp.SetInt("budget_solves", iters)
		sp.SetInt("reused", reused)
	}

	v := &model.VCPU{
		ID:     fmt.Sprintf("%s/ex-%d", tasks[0].VM, index),
		VM:     tasks[0].VM,
		Index:  index,
		Period: pi,
		Budget: budget,
		Tasks:  append([]*model.Task(nil), tasks...),
	}
	feasible := budget.Reference() <= pi
	if prov.Enabled() {
		// dem still holds the demand at the full (C,B) allocation — the
		// loop's last iteration, or the solve it reused, whose WCETs are
		// the same bits — which is the interface's reference point.
		theta := budget.Reference()
		t, slack := decisiveCheckpoint(pi, theta, cps, dem, feasible)
		prov.Record(provenance.Decision{
			Stage: provenance.StageCSA, Kind: provenance.KindInterface,
			Subject: v.ID, Cache: plat.C, BW: plat.B,
			Value: theta, Accepted: feasible,
			Reason: interfaceReason(pi, theta, feasibleAllocs, totalAllocs, t, slack, feasible),
		})
		prov.Record(provenance.Decision{
			Stage: provenance.StageCSA, Kind: provenance.KindInterface,
			Subject: v.ID, Cache: plat.Cmin, BW: plat.Bmin,
			Value: budget.At(plat.Cmin, plat.Bmin), Accepted: budget.At(plat.Cmin, plat.Bmin) <= pi,
			Reason: minAllocationReason(budget.At(plat.Cmin, plat.Bmin)),
		})
	}
	return v, feasible, nil
}

// interfaceReason renders the reason of an existing-CSA interface at the
// full allocation, byte for byte what
//
//	why := fmt.Sprintf("least supply slack %.4g at checkpoint t=%.4g", slack, t)
//	if !feasible {
//		why = fmt.Sprintf("demand %.4g at checkpoint t=%.4g exceeds even a dedicated core", slack, t)
//	}
//	fmt.Sprintf("existing CSA (Shin & Lee): period %.4g (half min task period), budget %.4g at full allocation; %d/%d (c,b) candidates feasible; %s",
//		pi, theta, feasibleAllocs, totalAllocs, why)
//
// prints, without fmt's reflection.
func interfaceReason(pi, theta float64, feasibleAllocs, totalAllocs int, t, slack float64, feasible bool) string {
	var buf [256]byte
	b := append(buf[:0], "existing CSA (Shin & Lee): period "...)
	b = strconv.AppendFloat(b, pi, 'g', 4, 64)
	b = append(b, " (half min task period), budget "...)
	b = strconv.AppendFloat(b, theta, 'g', 4, 64)
	b = append(b, " at full allocation; "...)
	b = strconv.AppendInt(b, int64(feasibleAllocs), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(totalAllocs), 10)
	b = append(b, " (c,b) candidates feasible; "...)
	if feasible {
		b = append(b, "least supply slack "...)
	} else {
		b = append(b, "demand "...)
	}
	b = strconv.AppendFloat(b, slack, 'g', 4, 64)
	b = append(b, " at checkpoint t="...)
	b = strconv.AppendFloat(b, t, 'g', 4, 64)
	if !feasible {
		b = append(b, " exceeds even a dedicated core"...)
	}
	return string(b)
}

// minAllocationReason renders the reason of an existing-CSA interface at
// the minimum allocation, byte for byte what fmt.Sprintf("budget %.4g at
// the minimum (Cmin,Bmin) allocation — the other end of the interface's
// resource gradient", budget) prints.
func minAllocationReason(budget float64) string {
	var buf [128]byte
	b := append(buf[:0], "budget "...)
	b = strconv.AppendFloat(b, budget, 'g', 4, 64)
	return string(append(b, " at the minimum (Cmin,Bmin) allocation — the other end of the interface's resource gradient"...))
}

// sameBits reports whether two float slices hold the same values, bit for
// bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// decisiveCheckpoint returns the demand checkpoint that decided the
// budget: with a feasible budget, the time point where supply clears
// demand by the least (and that slack); otherwise the point with the
// steepest demand rate (and the demand there).
func decisiveCheckpoint(pi, theta float64, cps, dem []float64, feasible bool) (t, evidence float64) {
	if feasible {
		minSlack := math.Inf(1)
		for i, cp := range cps {
			if slack := SBF(pi, theta, cp) - dem[i]; slack < minSlack {
				minSlack, t = slack, cp
			}
		}
		return t, minSlack
	}
	worst := -1.0
	var demAt float64
	for i, cp := range cps {
		if cp <= 0 {
			continue
		}
		if r := dem[i] / cp; r > worst {
			worst, t, demAt = r, cp, dem[i]
		}
	}
	return t, demAt
}

// pseudoBudget returns Pi * max_t dbf(t)/t for an infeasible allocation.
// An allocation is infeasible exactly when max_t dbf(t)/t > 1 (a dedicated
// core supplies sbf(t) = t), so the pseudo-budget always exceeds Pi and
// shrinks smoothly as additional cache/BW partitions reduce the WCETs.
func pseudoBudget(pi float64, checkpoints, demands []float64) float64 {
	var worst float64
	for i, t := range checkpoints {
		if t <= 0 {
			continue
		}
		if r := demands[i] / t; r > worst {
			worst = r
		}
	}
	return pi * worst
}

// MinBudget computes the minimum periodic-resource budget for the taskset
// under a single allocation (c,b) with VCPU period pi. It is the
// single-entry form of ExistingVCPU, used by tests and by callers that do
// not need the full table.
func MinBudget(tasks []*model.Task, pi float64, c, b int) (float64, bool, error) {
	if len(tasks) == 0 {
		return 0, false, errors.New("csa: MinBudget with no tasks")
	}
	demand, err := NewDemand(TaskPeriods(tasks))
	if err != nil {
		return 0, false, err
	}
	theta, ok := MinBudgetForDemand(pi, demand.Checkpoints(), demand.DBF(TaskWCETs(tasks, c, b)), nil)
	return theta, ok, nil
}
