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

// TestSimulationDeterminism: identical allocations simulated twice produce
// identical traces and metrics — the reproducibility property the
// well-regulated analysis (and every experiment in this repository)
// relies on.
func TestSimulationDeterminism(t *testing.T) {
	sys, err := workload.Generate(workload.Config{
		Platform:      model.PlatformA,
		TargetRefUtil: 1.0,
		Dist:          workload.Uniform,
	}, rngutil.New(555))
	if err != nil {
		t.Fatal(err)
	}
	h := &alloc.Heuristic{Mode: alloc.Flattening}
	a, err := h.Allocate(sys, rngutil.New(2))
	if errors.Is(err, model.ErrNotSchedulable) {
		t.Skip("unschedulable at this seed")
	}
	if err != nil {
		t.Fatal(err)
	}

	run := func() *Result {
		s, err := New(a, Config{RecordTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		return s.Run(timeunit.FromMillis(1500))
	}
	r1, r2 := run(), run()

	if r1.Released != r2.Released || r1.Completed != r2.Completed || r1.Missed != r2.Missed {
		t.Fatalf("aggregate metrics differ: %d/%d/%d vs %d/%d/%d",
			r1.Released, r1.Completed, r1.Missed, r2.Released, r2.Completed, r2.Missed)
	}
	if r1.ContextSwitches != r2.ContextSwitches || r1.SchedInvocations != r2.SchedInvocations {
		t.Fatal("scheduler activity differs between identical runs")
	}
	if len(r1.Trace) != len(r2.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(r1.Trace), len(r2.Trace))
	}
	for i := range r1.Trace {
		if r1.Trace[i] != r2.Trace[i] {
			t.Fatalf("trace diverges at entry %d: %+v vs %+v", i, r1.Trace[i], r2.Trace[i])
		}
	}
	// The full typed flight-recorder stream — every release, completion,
	// replenishment, context switch and slice — must be bit-identical,
	// not just the slice projection.
	if len(r1.Events) == 0 {
		t.Fatal("no trace events recorded")
	}
	if len(r1.Events) != len(r2.Events) {
		t.Fatalf("event stream lengths differ: %d vs %d", len(r1.Events), len(r2.Events))
	}
	for i := range r1.Events {
		if r1.Events[i] != r2.Events[i] {
			t.Fatalf("event stream diverges at %d: %+v vs %+v", i, r1.Events[i], r2.Events[i])
		}
	}
	for _, id := range sortedKeys(r1.Tasks) {
		if m1, m2 := r1.Tasks[id], r2.Tasks[id]; m1 != m2 {
			t.Fatalf("task %s metrics differ: %+v vs %+v", id, m1, m2)
		}
	}
}
