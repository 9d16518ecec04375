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

// BenchmarkTableMarshal encodes the WCET tables of the systems
// BenchmarkSubmitDecode decodes, one table per op, with
// ResourceTable.MarshalJSON, the table encoder of every json.Marshal of a
// system. A value with the same bits as its predecessor reuses its bytes;
// the distinct-values set is the reuse check's worst case.
func BenchmarkTableMarshal(b *testing.B) {
	for _, set := range []struct {
		name     string
		distinct bool
	}{{"cold-existing", false}, {"distinct-values", true}} {
		b.Run(set.name, func(b *testing.B) {
			var tables []*model.ResourceTable
			size := 0
			for _, req := range coldRequests(b, 32, set.distinct) {
				for _, t := range req.System.Tasks() {
					enc, err := t.WCET.MarshalJSON()
					if err != nil {
						b.Fatal(err)
					}
					tables = append(tables, t.WCET)
					size += len(enc)
				}
			}
			b.SetBytes(int64(size / len(tables)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				enc, err := tables[i%len(tables)].MarshalJSON()
				if err != nil {
					b.Fatal(err)
				}
				marshalSink = enc
			}
		})
	}
}

var marshalSink []byte

// submitBodies encodes n cold-existing-shaped run submissions.
func submitBodies(b *testing.B, n int, distinct bool) [][]byte {
	b.Helper()
	reqs := coldRequests(b, n, distinct)
	bodies := make([][]byte, n)
	for i, req := range reqs {
		var err error
		if bodies[i], err = json.Marshal(req); err != nil {
			b.Fatal(err)
		}
	}
	return bodies
}

// coldRequests returns n cold-existing-shaped run submissions, each
// carrying its generated system. With distinct set, every WCET table is
// strictly decreasing in row-major order, so no value equals its
// predecessor.
func coldRequests(b *testing.B, n int, distinct bool) []SubmitRequest {
	b.Helper()
	reqs := make([]SubmitRequest, n)
	for i := range reqs {
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
		reqs[i] = req
	}
	return reqs
}
