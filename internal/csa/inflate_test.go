package csa

import (
	"math"
	"testing"

	"vc2m/internal/model"
)

func TestInflateTasksZeroOverheadIsIdentity(t *testing.T) {
	p := model.PlatformA
	tasks := []*model.Task{model.SimpleTask("t1", p, 10, 1)}
	out := Overheads{}.InflateTasks(tasks)
	if &out[0] != &tasks[0] {
		t.Error("zero overhead should return the input unchanged")
	}
}

func TestInflateTasksAddsPreemptionCost(t *testing.T) {
	p := model.PlatformA
	tasks := []*model.Task{
		model.SimpleTask("short", p, 10, 1),
		model.SimpleTask("long", p, 40, 2),
	}
	out := Overheads{TaskPreemption: 0.1}.InflateTasks(tasks)
	// "short" has no shorter-period peer: 1 reload charge (its own release).
	if got := out[0].WCET.Reference(); math.Abs(got-1.1) > 1e-9 {
		t.Errorf("short inflated WCET = %v, want 1.1", got)
	}
	// "long" can be preempted by "short": release + one preempter.
	if got := out[1].WCET.Reference(); math.Abs(got-2.2) > 1e-9 {
		t.Errorf("long inflated WCET = %v, want 2.2", got)
	}
	// Originals untouched.
	if math.Float64bits(tasks[0].WCET.Reference()) != math.Float64bits(1) {
		t.Error("inflation mutated the original task")
	}
}

func TestInflateVCPU(t *testing.T) {
	p := model.PlatformA
	v := &model.VCPU{ID: "v", Period: 10, Budget: model.ConstTable(p, 2)}
	out := Overheads{VCPUPreemption: 0.25}.InflateVCPU(v)
	if got := out.Budget.Reference(); math.Abs(got-2.25) > 1e-9 {
		t.Errorf("inflated budget = %v, want 2.25", got)
	}
	v2 := &model.VCPU{ID: "v2", Period: 10, Budget: model.ConstTable(p, 2)}
	if got := (Overheads{}).InflateVCPU(v2); math.Float64bits(got.Budget.Reference()) != math.Float64bits(2) {
		t.Error("zero overhead must not change the budget")
	}
}

func TestInflationPreservesMonotonicity(t *testing.T) {
	p := model.PlatformC
	task := &model.Task{ID: "t", Period: 100,
		WCET: model.FuncTable(p, func(c, b int) float64 {
			return 5 + 0.3*float64(p.C-c) + 0.2*float64(p.B-b)
		})}
	out := Overheads{TaskPreemption: 0.5}.InflateTasks([]*model.Task{task})
	if err := out[0].WCET.CheckMonotone(); err != nil {
		t.Errorf("inflated table lost monotonicity: %v", err)
	}
}
