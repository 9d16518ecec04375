package hypersim

import (
	"testing"

	"vc2m/internal/model"
	"vc2m/internal/timeunit"
)

func TestContinueLateJobsReportsTardiness(t *testing.T) {
	// Utilization 1.2: in default mode late jobs are discarded at their
	// deadline (MaxLateness stays 0); in tardiness mode they finish late
	// and MaxLateness becomes positive.
	mk := func(continueLate bool) *Result {
		a := flatAlloc(t, model.PlatformA, 10, 10, [2]float64{10, 6}, [2]float64{10, 6})
		s, err := New(a, Config{ContinueLateJobs: continueLate})
		if err != nil {
			t.Fatal(err)
		}
		return s.Run(timeunit.FromMillis(500))
	}
	drop := mk(false)
	if drop.Missed == 0 {
		t.Fatal("overload produced no misses")
	}
	for _, id := range sortedKeys(drop.Tasks) {
		if tm := drop.Tasks[id]; tm.MaxLateness != 0 {
			t.Errorf("%s: lateness %v in discard mode, want 0", id, tm.MaxLateness)
		}
	}

	late := mk(true)
	if late.Missed == 0 {
		t.Fatal("tardiness mode produced no misses")
	}
	var sawLate bool
	for _, tm := range late.Tasks { //vc2m:ordered an any-of fold: the result does not depend on order
		if tm.MaxLateness > 0 {
			sawLate = true
		}
	}
	if !sawLate {
		t.Error("tardiness mode reported no positive lateness")
	}
	// Backlog bounded at one job: release counts do not explode.
	for _, id := range sortedKeys(late.Tasks) {
		if tm := late.Tasks[id]; tm.Released > 51 {
			t.Errorf("%s: %d releases over 500 ms at period 10, backlog not bounded", id, tm.Released)
		}
	}
}

func TestContinueLateJobsHarmlessWhenSchedulable(t *testing.T) {
	a := flatAlloc(t, model.PlatformA, 10, 10, [2]float64{10, 4}, [2]float64{20, 8})
	s, err := New(a, Config{ContinueLateJobs: true})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(timeunit.FromMillis(1000))
	if res.Missed != 0 {
		t.Errorf("schedulable system missed %d in tardiness mode", res.Missed)
	}
}
