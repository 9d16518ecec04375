package server

import (
	"context"
	"fmt"
	"testing"

	"vc2m/internal/obs"
)

// BenchmarkEventBusPublish times one publish into a full replay ring. A
// publish must cost the same at any history length and allocate nothing.
func BenchmarkEventBusPublish(b *testing.B) {
	for _, history := range []int{64, 4096} {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			bus := newEventBus(history, 64)
			ev := RunEvent{Type: EventStage, Run: "r0001", Kind: KindRun, State: StateRunning, Stage: "hyper"}
			for i := 0; i < history; i++ {
				bus.publish(ev)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bus.publish(ev)
			}
		})
	}
}

// BenchmarkServedRun executes cold-existing-shaped runs (platform A,
// reference utilization 1.2, two VMs, existing CSA) the way a worker
// does: Registry.Add builds the real provenance sink chain, execute runs
// the allocation, publishes the lifecycle events and records the run's
// metrics. Each run is removed afterwards so the registry stays small.
func BenchmarkServedRun(b *testing.B) {
	s := New(Config{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		run := s.reg.Add(coldExistingReq(int64(i%64)+1), ctx, cancel, obs.TraceContext{}, "")
		s.execute(ctx, run)
		cancel()
		if st := run.Status(); st.State != StateDone {
			b.Fatalf("run %s: %s", st.State, st.Error)
		}
		s.reg.Remove(run.ID())
	}
}
