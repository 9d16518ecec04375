package csa

import (
	"math"
	"testing"

	"vc2m/internal/model"
)

func TestExistingVCPUPaperExample(t *testing.T) {
	// The motivating example from the introduction uses a VCPU period
	// equal to the task period: a single task (10, 1) then needs budget
	// 5.5 — bandwidth 0.55, 5.5x the task utilization of 0.1. That case is
	// covered by TestMinBudgetConvenience; ExistingVCPU itself uses the
	// half-minimum-period rule (Pi = 5), for which the minimum budget is
	// 1.0 — bandwidth 0.2, still 2x the utilization (the abstraction
	// overhead the paper removes).
	p := model.PlatformA
	task := model.SimpleTask("t1", p, 10, 1)
	task.VM = "vm1"
	v, feasible, err := ExistingVCPU([]*model.Task{task}, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if !feasible {
		t.Fatal("feasible taskset reported infeasible")
	}
	if v.Period != 5 {
		t.Errorf("VCPU period = %v, want half the minimum task period (5)", v.Period)
	}
	if math.Abs(v.Budget.Reference()-1.0) > 1e-3 {
		t.Errorf("reference budget = %v, want 1.0", v.Budget.Reference())
	}
	if math.Abs(v.RefBandwidth()-0.2) > 1e-3 {
		t.Errorf("bandwidth = %v, want 0.2 (2x the utilization)", v.RefBandwidth())
	}
}

func TestExistingVCPUAlwaysAtLeastUtilization(t *testing.T) {
	// The abstraction overhead is non-negative: the existing CSA's budget
	// is at least the overhead-free budget at every allocation.
	p := model.PlatformC
	mk := func(id string, period, base float64) *model.Task {
		return &model.Task{ID: id, VM: "vm1", Period: period,
			WCET: model.FuncTable(p, func(c, b int) float64 {
				return base * (1 + 0.15*float64(p.C-c) + 0.08*float64(p.B-b))
			})}
	}
	tasks := []*model.Task{mk("t1", 100, 4), mk("t2", 200, 10)}
	ex, feasible, err := ExistingVCPU(tasks, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if !feasible {
		t.Fatal("reported infeasible")
	}
	wr, err := WellRegulatedVCPU(tasks, 0)
	if err != nil {
		t.Fatal(err)
	}
	for c := p.Cmin; c <= p.C; c++ {
		for b := p.Bmin; b <= p.B; b++ {
			exBW := ex.Budget.At(c, b) / ex.Period
			wrBW := wr.Budget.At(c, b) / wr.Period
			if exBW < wrBW-1e-6 {
				t.Fatalf("existing bandwidth %v below overhead-free %v at (%d,%d)", exBW, wrBW, c, b)
			}
		}
	}
}

func TestExistingVCPUInfeasibleEntries(t *testing.T) {
	// A task whose WCET explodes at small allocations makes those entries
	// infeasible while the reference stays feasible. Infeasible entries
	// carry a finite pseudo-budget above the period so that the
	// hypervisor-level greedy still sees a gradient.
	p := model.PlatformC
	task := &model.Task{ID: "t1", VM: "vm1", Period: 10,
		WCET: model.FuncTable(p, func(c, b int) float64 {
			if c == p.Cmin && b == p.Bmin {
				return 20 // exceeds the period: no budget can help
			}
			return 1
		})}
	// This table is not monotone, but ExistingVCPU does not require it.
	v, feasible, err := ExistingVCPU([]*model.Task{task}, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if !feasible {
		t.Fatal("reference allocation should be feasible")
	}
	got := v.Budget.At(p.Cmin, p.Bmin)
	if math.IsInf(got, 1) || got <= v.Period {
		t.Errorf("infeasible entry budget = %v, want finite pseudo-budget > period %v", got, v.Period)
	}
	// dbf(10)/10 = 20/10 = 2, so the pseudo-budget is Pi * 2 = 10 (Pi = 5).
	if math.Abs(got-10) > 1e-6 {
		t.Errorf("pseudo-budget = %v, want 10 (Pi * max dbf(t)/t)", got)
	}
}

func TestExistingVCPUPseudoBudgetGradient(t *testing.T) {
	// Across a range of infeasible allocations, the pseudo-budget must
	// decrease as resources grow — the property Phase 2 relies on.
	p := model.PlatformC
	task := &model.Task{ID: "t1", VM: "vm1", Period: 10,
		WCET: model.FuncTable(p, func(c, b int) float64 {
			return 40 - float64(c+b) // infeasible everywhere (> period)
		})}
	v, feasible, err := ExistingVCPU([]*model.Task{task}, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if feasible {
		t.Fatal("should be infeasible everywhere")
	}
	if v.Budget.At(3, 3) <= v.Budget.At(10, 10) {
		t.Errorf("pseudo-budget must shrink as resources grow: At(3,3)=%v, At(10,10)=%v",
			v.Budget.At(3, 3), v.Budget.At(10, 10))
	}
}

func TestExistingVCPUFullyInfeasible(t *testing.T) {
	p := model.PlatformC
	task := model.SimpleTask("t1", p, 10, 11) // WCET above period
	task.VM = "vm1"
	_, feasible, err := ExistingVCPU([]*model.Task{task}, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if feasible {
		t.Error("utilization > 1 reported feasible")
	}
}

func TestExistingVCPUEmpty(t *testing.T) {
	if _, _, err := ExistingVCPU(nil, 0, model.PlatformA); err == nil {
		t.Error("empty taskset accepted")
	}
}

func TestMinBudgetConvenience(t *testing.T) {
	p := model.PlatformA
	task := model.SimpleTask("t1", p, 10, 1)
	theta, ok, err := MinBudget([]*model.Task{task}, 10, p.C, p.B)
	if err != nil || !ok {
		t.Fatalf("MinBudget failed: %v ok=%v", err, ok)
	}
	if math.Abs(theta-5.5) > 1e-3 {
		t.Errorf("theta = %v, want 5.5", theta)
	}
	if _, _, err := MinBudget(nil, 10, 2, 1); err == nil {
		t.Error("empty taskset accepted")
	}
}

func TestMinBudgetSmallerPeriodHelps(t *testing.T) {
	// A smaller resource period reduces the blackout and thus the required
	// bandwidth for the same taskset.
	p := model.PlatformA
	task := model.SimpleTask("t1", p, 10, 1)
	t10, ok1, _ := MinBudget([]*model.Task{task}, 10, p.C, p.B)
	t5, ok2, _ := MinBudget([]*model.Task{task}, 5, p.C, p.B)
	if !ok1 || !ok2 {
		t.Fatal("unexpected infeasible")
	}
	bw10, bw5 := t10/10, t5/5
	if bw5 >= bw10 {
		t.Errorf("bandwidth with period 5 (%v) should be below period 10 (%v)", bw5, bw10)
	}
}
