package csa

import (
	"math"
	"testing"

	"vc2m/internal/model"
)

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
	v := &model.VCPU{ID: "v", Period: 100,
		Budget: model.FuncTable(p, func(c, b int) float64 {
			return 5 + 0.3*float64(p.C-c) + 0.2*float64(p.B-b)
		})}
	out := Overheads{VCPUPreemption: 0.5}.InflateVCPU(v)
	if err := out.Budget.CheckMonotone(); err != nil {
		t.Errorf("inflated table lost monotonicity: %v", err)
	}
}
