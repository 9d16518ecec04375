package hypersim

import (
	"errors"
	"testing"

	"vc2m/internal/alloc"
	"vc2m/internal/model"
	"vc2m/internal/rngutil"
	"vc2m/internal/timeunit"
	"vc2m/internal/workload"
)

// TestBudgetConservation verifies the periodic-server contract from the
// execution trace: within each of its periods, a VCPU never executes for
// more than its budget, and cores never run two VCPUs at once.
func TestBudgetConservation(t *testing.T) {
	sys, err := workload.Generate(workload.Config{
		Platform:      model.PlatformA,
		TargetRefUtil: 1.0,
		Dist:          workload.Uniform,
	}, rngutil.New(321))
	if err != nil {
		t.Fatal(err)
	}
	h := &alloc.Heuristic{Mode: alloc.OverheadFree}
	a, err := h.Allocate(sys, rngutil.New(1))
	if errors.Is(err, model.ErrNotSchedulable) {
		t.Skip("workload unschedulable at this seed")
	}
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(a, Config{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(timeunit.FromMillis(2200))

	// Collect each VCPU's period and budget (at its core's allocation).
	type spec struct {
		period timeunit.Ticks
		budget timeunit.Ticks
	}
	specs := map[string]spec{}
	for _, core := range a.Cores {
		for _, v := range core.VCPUs {
			specs[v.ID] = spec{
				period: timeunit.FromMillis(v.Period),
				budget: timeunit.FromMillisCeil(v.Budget.At(core.Cache, core.BW)),
			}
		}
	}

	// Per (VCPU, period index): executed time must not exceed the budget.
	execPerPeriod := map[string]map[int64]timeunit.Ticks{}
	for _, e := range res.Trace {
		sp, ok := specs[e.VCPU]
		if !ok {
			t.Fatalf("trace mentions unknown VCPU %s", e.VCPU)
		}
		if execPerPeriod[e.VCPU] == nil {
			execPerPeriod[e.VCPU] = map[int64]timeunit.Ticks{}
		}
		// Split the slice across period boundaries.
		for start := e.Start; start < e.End; {
			k := int64(start / sp.period)
			boundary := timeunit.Ticks(k+1) * sp.period
			end := e.End
			if boundary < end {
				end = boundary
			}
			execPerPeriod[e.VCPU][k] += end - start
			start = end
		}
	}
	for _, vcpu := range sortedKeys(execPerPeriod) {
		periods := execPerPeriod[vcpu]
		for _, k := range sortedKeys(periods) {
			if exec := periods[k]; exec > specs[vcpu].budget {
				t.Errorf("VCPU %s period %d executed %v, budget is %v",
					vcpu, k, exec, specs[vcpu].budget)
			}
		}
	}

	// No two slices on the same core may overlap.
	type slice struct{ start, end timeunit.Ticks }
	perCore := map[int][]slice{}
	for _, e := range res.Trace {
		perCore[e.Core] = append(perCore[e.Core], slice{e.Start, e.End})
	}
	for _, core := range sortedKeys(perCore) {
		slices := perCore[core]
		for i := 1; i < len(slices); i++ {
			if slices[i].start < slices[i-1].end {
				t.Errorf("core %d has overlapping slices: %v and %v",
					core, slices[i-1], slices[i])
			}
		}
	}
	if res.Missed != 0 {
		t.Errorf("schedulable allocation missed %d deadlines", res.Missed)
	}
}
