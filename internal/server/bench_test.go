package server

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"vc2m/internal/model"
	"vc2m/internal/obs"
	"vc2m/internal/rngutil"
	"vc2m/internal/workload"
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

// BenchmarkSubmitDecode decodes cold-existing-shaped submission bodies,
// each a posted platform-A system at reference utilization 1.2 over two
// VMs, with SubmitRequest.UnmarshalJSON, the handlers' decoder. Saturated
// WCET tables repeat most values of their predecessor, which the table
// scan reuses; the distinct-values set scales every table value by a
// factor strictly decreasing along the table, so no value repeats and
// the reuse check never hits.
func BenchmarkSubmitDecode(b *testing.B) {
	for _, set := range []struct {
		name     string
		distinct bool
	}{{"cold-existing", false}, {"distinct-values", true}} {
		b.Run(set.name, func(b *testing.B) {
			bodies := submitBodies(b, 32, set.distinct)
			size := 0
			for _, body := range bodies {
				size += len(body)
			}
			b.SetBytes(int64(size / len(bodies)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var req SubmitRequest
				if err := req.UnmarshalJSON(bodies[i%len(bodies)]); err != nil {
					b.Fatal(err)
				}
				decodeSink = req.System
			}
		})
	}
}

var decodeSink *model.System

// submitBodies encodes n cold-existing-shaped run submissions. With
// distinct set, every WCET table is strictly decreasing in row-major
// order, so no value equals its predecessor.
func submitBodies(b *testing.B, n int, distinct bool) [][]byte {
	b.Helper()
	bodies := make([][]byte, n)
	for i := range bodies {
		req := coldExistingReq(int64(i) + 1)
		sys, err := workload.Generate(*req.Generate, rngutil.New(req.GenSeed))
		if err != nil {
			b.Fatal(err)
		}
		req.Generate, req.System = nil, sys
		if distinct {
			for _, t := range sys.Tasks() {
				cmin, cmax, bmin, bmax := t.WCET.Bounds()
				k := (cmax - cmin + 1) * (bmax - bmin + 1)
				t.WCET.Fill(func(c, bw int) float64 {
					k--
					return t.WCET.At(c, bw) * (1 + float64(k)*0x1p-40)
				})
			}
		}
		if bodies[i], err = json.Marshal(req); err != nil {
			b.Fatal(err)
		}
	}
	return bodies
}
