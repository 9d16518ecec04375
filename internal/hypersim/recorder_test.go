package hypersim

import (
	"testing"

	"vc2m/internal/metrics"
	"vc2m/internal/model"
)

// TestRunRecordsMetrics checks that a run with a recorder attached mirrors
// its Result counters into the recorder, and that the counters match the
// deterministic single-task scenario of TestExactSchedulerMetrics.
func TestRunRecordsMetrics(t *testing.T) {
	a := flatAlloc(t, model.PlatformA, 10, 10, [2]float64{10, 4})
	rec := metrics.New()
	res := run(t, a, Config{Metrics: rec}, 100)

	want := []struct {
		name string
		w    int64
	}{
		{MetricContextSwitches, int64(res.ContextSwitches)},
		{MetricSchedInvocations, int64(res.SchedInvocations)},
		{MetricBudgetReplenish, int64(res.BudgetReplenishments)},
		{MetricThrottleEvents, int64(res.ThrottleEvents)},
		{MetricBWReplenish, int64(res.BWReplenishments)},
		{MetricJobsReleased, int64(res.Released)},
		{MetricJobsCompleted, int64(res.Completed)},
		{MetricDeadlineMisses, int64(res.Missed)},
	}
	for _, c := range want {
		if got := rec.Counter(c.name); got != c.w {
			t.Errorf("%s = %d, want %d", c.name, got, c.w)
		}
	}
	if rec.Counter(MetricBudgetReplenish) != 11 {
		t.Errorf("budget replenishments = %d, want 11", rec.Counter(MetricBudgetReplenish))
	}
	if rec.Counter(MetricJobsReleased) != 11 || rec.Counter(MetricJobsCompleted) != 10 {
		t.Errorf("jobs = %d released / %d completed, want 11 / 10",
			rec.Counter(MetricJobsReleased), rec.Counter(MetricJobsCompleted))
	}
	if rec.Counter(MetricDeadlineMisses) != 0 {
		t.Errorf("deadline misses = %d, want 0", rec.Counter(MetricDeadlineMisses))
	}
}

// TestRunNilMetrics checks that the default nil recorder changes nothing.
func TestRunNilMetrics(t *testing.T) {
	a := flatAlloc(t, model.PlatformA, 10, 10, [2]float64{10, 4})
	res := run(t, a, Config{}, 100)
	if res.Missed != 0 {
		t.Fatalf("missed = %d, want 0", res.Missed)
	}
}
