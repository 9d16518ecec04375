package csa

import (
	"testing"

	"vc2m/internal/model"
	"vc2m/internal/parsec"
)

func BenchmarkSBF(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SBF(10, 5.5, float64(i%40))
	}
}

func BenchmarkMinBudgetForDemand(b *testing.B) {
	cps := []float64{100, 200, 300, 400, 800}
	dem := []float64{10, 30, 45, 70, 150}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := MinBudgetForDemand(100, cps, dem, nil); !ok {
			b.Fatal("unexpected infeasible")
		}
	}
}

func benchTasks(n int) []*model.Task {
	p := model.PlatformA
	tasks := make([]*model.Task, n)
	for i := range tasks {
		period := 100.0 * float64(int(1)<<uint(i%4))
		tasks[i] = model.SimpleTask("t", p, period, period*0.05)
		tasks[i].VM = "vm"
	}
	return tasks
}

// BenchmarkExistingVCPU measures the cost of the classical analysis: a
// minimum-budget search per (c,b) allocation — the reason Figure 4's
// existing-CSA curve is an order of magnitude above the others. The cases
// span the reuse rule: 8-tasks has flat tables (nearly every cell
// repeats its predecessor), one-task is a churn arrival with a PARSEC
// profile (runs of equal cells past its saturation points), and distinct
// has no two equal cells, so every cell is solved and the equality check
// is pure overhead.
func BenchmarkExistingVCPU(b *testing.B) {
	p := model.PlatformA
	nb := p.B - p.Bmin + 1
	distinct := benchTasks(8)
	for i, t := range distinct {
		step := 0.001 * float64(i+1)
		t.WCET = model.FuncTable(p, func(c, b int) float64 {
			return t.Period * 0.05 * (1 + step*float64((p.C-c)*nb+p.B-b))
		})
	}
	arrival := &model.Task{ID: "t", VM: "vm", Period: 200,
		WCET: parsec.All[1].Profile(p).Scale(30)}
	for _, bc := range []struct {
		name  string
		tasks []*model.Task
	}{
		{"8-tasks", benchTasks(8)},
		{"one-task", []*model.Task{arrival}},
		{"distinct", distinct},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := ExistingVCPU(bc.tasks, 0, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWellRegulatedVCPU measures the overhead-free analysis: a
// scaled table sum.
func BenchmarkWellRegulatedVCPU(b *testing.B) {
	tasks := benchTasks(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WellRegulatedVCPU(tasks, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNewDemandHarmonic(b *testing.B) {
	periods := []float64{100, 200, 400, 800, 100, 200}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewDemand(periods); err != nil {
			b.Fatal(err)
		}
	}
}
