package hypersim

import (
	"errors"
	"testing"

	"vc2m/internal/alloc"
	"vc2m/internal/model"
	"vc2m/internal/rngutil"
	"vc2m/internal/timeunit"
	"vc2m/internal/trace"
	"vc2m/internal/workload"
)

// invariantAllocs generates allocations across random workloads for the
// property tests below, skipping seeds the allocator rejects. It returns
// at least minOK allocations or fails the test.
func invariantAllocs(t *testing.T, minOK int) []*model.Allocation {
	t.Helper()
	h := &alloc.Heuristic{Mode: alloc.Flattening}
	var out []*model.Allocation
	for seed := int64(1); seed <= 3*int64(minOK) && len(out) < minOK; seed++ {
		sys, err := workload.Generate(workload.Config{
			Platform:      model.PlatformA,
			TargetRefUtil: 0.7 + 0.1*float64(seed%5),
			Dist:          workload.Uniform,
		}, rngutil.New(1000+seed))
		if err != nil {
			t.Fatal(err)
		}
		a, err := h.Allocate(sys, rngutil.New(seed))
		if errors.Is(err, model.ErrNotSchedulable) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, a)
	}
	if len(out) < minOK {
		t.Fatalf("only %d of %d schedulable allocations generated; property tests have no power", len(out), minOK)
	}
	return out
}

// TestInvariantsAcrossRandomWorkloads checks the simulator's structural
// invariants over a population of random schedulable workloads:
//
//   - event timestamps never regress (the engine's total order is honored
//     by every handler);
//   - execution slices are well-formed (Start <= End) and, per core,
//     non-overlapping in stream order;
//   - VCPU budgets never go negative: every charged slice reports a
//     non-negative budget remainder, and no slice outruns the budget its
//     server was last replenished with;
//   - Result.Trace is exactly the EvExecSlice projection of Result.Events
//     (checked against an independent inline projection, not the library's
//     own SlicesFromEvents);
//   - at every emitted event, each VCPU's activeTasks count equals the
//     number of its tasks holding an active job (the count the dispatcher
//     reads instead of walking the tasks).
func TestInvariantsAcrossRandomWorkloads(t *testing.T) {
	for i, a := range invariantAllocs(t, 10) {
		res := runCheckingActiveCounts(t, i, a, Config{RecordTrace: true}, timeunit.FromMillis(800))
		checkEventInvariants(t, i, res)
	}
}

// TestInvariantsUnderRegulation re-checks the same invariants with
// memory-bandwidth regulation enabled, so the throttle/replenish handlers
// participate in the property.
func TestInvariantsUnderRegulation(t *testing.T) {
	for i, a := range invariantAllocs(t, 5) {
		budgets := make([]int64, len(a.Cores))
		memRate := map[string]float64{}
		for bi := range budgets {
			budgets[bi] = 40
		}
		for _, ca := range a.Cores {
			for _, v := range ca.VCPUs {
				for _, task := range v.Tasks {
					memRate[task.ID] = 25
				}
			}
		}
		res := runCheckingActiveCounts(t, i, a, Config{
			RecordTrace:      true,
			RegulationPeriod: timeunit.FromMillis(1),
			BWBudgets:        budgets,
			MemRate:          memRate,
		}, timeunit.FromMillis(500))
		checkEventInvariants(t, i, res)
	}
}

// activeCountSink checks, at every event the simulator emits, that each
// VCPU's activeTasks count equals the number of its active tasks.
type activeCountSink struct {
	t    *testing.T
	s    *Simulator
	seed int
}

func (c *activeCountSink) Record(ev trace.Event) {
	if c == nil {
		return
	}
	for _, v := range c.s.vcpus {
		n := 0
		for _, task := range v.tasks {
			if task.active {
				n++
			}
		}
		if v.activeTasks != n {
			c.t.Fatalf("workload %d: at %+v VCPU %s counts %d active tasks, has %d",
				c.seed, ev, v.spec.ID, v.activeTasks, n)
		}
	}
}

// runCheckingActiveCounts simulates a under cfg with an activeCountSink
// attached to the event stream.
func runCheckingActiveCounts(t *testing.T, seed int, a *model.Allocation, cfg Config, horizon timeunit.Ticks) *Result {
	t.Helper()
	check := &activeCountSink{t: t, seed: seed}
	cfg.Trace = check
	s, err := New(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	check.s = s
	return s.Run(horizon)
}

func checkEventInvariants(t *testing.T, seed int, res *Result) {
	t.Helper()
	if len(res.Events) == 0 {
		t.Fatalf("workload %d: no events recorded", seed)
	}

	var prev timeunit.Ticks
	lastEnd := map[int]timeunit.Ticks{}       // core -> end of its last slice
	lastBudget := map[string]timeunit.Ticks{} // vcpu -> budget at last replenishment
	var projected []TraceEntry

	for i, ev := range res.Events {
		if ev.Time < prev {
			t.Fatalf("workload %d: event %d timestamp regresses: %v after %v (%+v)", seed, i, ev.Time, prev, ev)
		}
		prev = ev.Time

		switch ev.Type {
		case trace.EvVCPUReplenish:
			if ev.Budget < 0 {
				t.Fatalf("workload %d: event %d: negative replenished budget %v", seed, i, ev.Budget)
			}
			lastBudget[ev.VCPU] = ev.Budget
		case trace.EvExecSlice:
			if ev.Start > ev.Time {
				t.Fatalf("workload %d: event %d: slice ends before it starts: [%v,%v)", seed, i, ev.Start, ev.Time)
			}
			if ev.Budget < 0 {
				t.Fatalf("workload %d: event %d: VCPU %s budget went negative: %v", seed, i, ev.VCPU, ev.Budget)
			}
			if full, ok := lastBudget[ev.VCPU]; ok && ev.Time-ev.Start > full {
				t.Fatalf("workload %d: event %d: slice of %v outruns VCPU %s budget %v", seed, i, ev.Time-ev.Start, ev.VCPU, full)
			}
			if end, ok := lastEnd[ev.Core]; ok && ev.Start < end {
				t.Fatalf("workload %d: event %d: core %d slices overlap: starts %v before previous end %v", seed, i, ev.Core, ev.Start, end)
			}
			lastEnd[ev.Core] = ev.Time
			projected = append(projected, TraceEntry{
				Core: ev.Core, VCPU: ev.VCPU, Task: ev.Task,
				Start: ev.Start, End: ev.Time,
			})
		}
	}

	if len(projected) != len(res.Trace) {
		t.Fatalf("workload %d: Trace has %d entries, Events project to %d", seed, len(res.Trace), len(projected))
	}
	for i := range projected {
		if projected[i] != res.Trace[i] {
			t.Fatalf("workload %d: Trace[%d] = %+v but Events project %+v", seed, i, res.Trace[i], projected[i])
		}
	}
}
