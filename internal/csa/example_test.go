package csa_test

import (
	"fmt"

	"vc2m/internal/csa"
	"vc2m/internal/model"
)

// ExampleSBF reproduces the paper's motivating computation: a periodic
// resource with period 10 and budget 5.5 supplies exactly 1 unit by time
// 10 in the worst case — just enough for a task with WCET 1 and deadline
// 10.
func ExampleSBF() {
	fmt.Printf("sbf(9)  = %.1f\n", csa.SBF(10, 5.5, 9))
	fmt.Printf("sbf(10) = %.1f\n", csa.SBF(10, 5.5, 10))
	// Output:
	// sbf(9)  = 0.0
	// sbf(10) = 1.0
}

// ExampleMinBudgetForDemand shows the abstraction overhead of the
// classical analysis: a utilization-0.1 task demands a bandwidth-0.55
// VCPU.
func ExampleMinBudgetForDemand() {
	theta, ok := csa.MinBudgetForDemand(10, []float64{10}, []float64{1}, nil)
	fmt.Printf("feasible: %v, budget: %.1f, bandwidth: %.2f\n", ok, theta, theta/10)
	// Output:
	// feasible: true, budget: 5.5, bandwidth: 0.55
}

// ExampleWellRegulatedVCPU shows Theorem 2 removing that overhead: a
// harmonic taskset gets a VCPU bandwidth equal to its utilization.
func ExampleWellRegulatedVCPU() {
	p := model.PlatformA
	tasks := []*model.Task{
		model.SimpleTask("a", p, 10, 1),
		model.SimpleTask("b", p, 20, 4),
	}
	for _, t := range tasks {
		t.VM = "vm"
	}
	v, err := csa.WellRegulatedVCPU(tasks, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("period: %.0f, budget: %.0f, bandwidth: %.2f\n",
		v.Period, v.Budget.Reference(), v.RefBandwidth())
	// Output:
	// period: 10, budget: 3, bandwidth: 0.30
}
