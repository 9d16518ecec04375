package csa

import (
	"errors"
	"fmt"

	"vc2m/internal/model"
)

// ErrNotHarmonic is returned by WellRegulatedVCPU when the taskset's
// periods are not pairwise harmonic, which Theorem 2 requires.
var ErrNotHarmonic = errors.New("csa: taskset periods are not harmonic")

// FlattenVCPU applies Theorem 1: a task executing alone on a VCPU whose
// release is synchronized with the task's is schedulable with the VCPU
// period equal to the task period and budget Theta(c,b) = e(c,b) for every
// allocation. The returned VCPU carries the task and has SyncedRelease set.
//
// This mapping has zero abstraction overhead: the VCPU's bandwidth under
// any allocation equals the task's utilization under that allocation.
func FlattenVCPU(t *model.Task, index int) *model.VCPU {
	return &model.VCPU{
		ID:            fmt.Sprintf("%s/flat-%s", t.VM, t.ID),
		VM:            t.VM,
		Index:         index,
		Period:        t.Period,
		Budget:        t.WCET.Clone(),
		Tasks:         []*model.Task{t},
		SyncedRelease: true,
	}
}

// WellRegulatedVCPU applies Theorem 2: a harmonic taskset is guaranteed
// schedulable under EDF on a well-regulated VCPU with period Pi = min_i p_i
// and budget Theta(c,b) = Pi * sum_i e_i(c,b)/p_i, i.e. a CPU bandwidth
// exactly equal to the taskset's utilization under each allocation. The
// returned VCPU carries the tasks and has WellRegulated set; the caller is
// responsible for scheduling it with harmonic periods, a common release
// offset, and the deterministic EDF tie-breaking rule (period first, then
// index), which the hypervisor simulator implements.
//
// It returns ErrNotHarmonic if the periods are not pairwise harmonic and an
// error for an empty taskset.
func WellRegulatedVCPU(tasks []*model.Task, index int) (*model.VCPU, error) {
	pi, err := wellRegulatedPeriod(tasks)
	if err != nil {
		return nil, err
	}
	budget := tasks[0].WCET.Clone().Scale(pi / tasks[0].Period)
	for _, t := range tasks[1:] {
		budget.AddScaled(t.WCET, pi/t.Period)
	}
	return &model.VCPU{
		ID:            WellRegulatedID(tasks[0].VM, index),
		VM:            tasks[0].VM,
		Index:         index,
		Period:        pi,
		Budget:        budget,
		Tasks:         append([]*model.Task(nil), tasks...),
		WellRegulated: true,
	}, nil
}

// WellRegulatedBandwidth returns Bandwidth(c, b) of the VCPU that
// WellRegulatedVCPU builds for tasks, bit for bit, from the (c, b) cell of
// each WCET table alone, with the same errors. A packer that prices a
// grouping before committing to it (Evenly-partition tries every core
// count) builds budget tables only for the grouping it keeps.
func WellRegulatedBandwidth(tasks []*model.Task, c, b int) (float64, error) {
	pi, err := wellRegulatedPeriod(tasks)
	if err != nil {
		return 0, err
	}
	// Scale's and AddScaled's roundings at one cell; the conversion rounds
	// each product before its add, as AddScaled does.
	theta := tasks[0].WCET.At(c, b) * (pi / tasks[0].Period)
	for _, t := range tasks[1:] {
		theta += float64(t.WCET.At(c, b) * (pi / t.Period))
	}
	return theta / pi, nil
}

// WellRegulatedID names the well-regulated VCPU of VM vm with the given
// index.
func WellRegulatedID(vm string, index int) string {
	return fmt.Sprintf("%s/wr-%d", vm, index)
}

// wellRegulatedPeriod returns Theorem 2's VCPU period, the smallest task
// period, after checking that the taskset is non-empty and harmonic.
func wellRegulatedPeriod(tasks []*model.Task) (float64, error) {
	if len(tasks) == 0 {
		return 0, errors.New("csa: WellRegulatedVCPU with no tasks")
	}
	periods := TaskPeriods(tasks)
	if !HarmonicPeriods(periods) {
		return 0, ErrNotHarmonic
	}
	pi := periods[0]
	for _, p := range periods[1:] {
		if p < pi {
			pi = p
		}
	}
	return pi, nil
}
