package server_test

import (
	"context"
	"testing"

	"vc2m/internal/model"
	"vc2m/internal/server"
	"vc2m/internal/workload"
)

// BenchmarkReportFetch fetches the report of one finished cold-existing
// run (platform A, reference utilization 1.2, two VMs, existing CSA) over
// loopback through client.ReportBytes, the benchmark client's fetch.
func BenchmarkReportFetch(b *testing.B) {
	s, c := startHTTP(b, server.Config{Workers: 1})
	ctx := context.Background()
	sub, err := c.Submit(ctx, server.SubmitRequest{
		Kind: server.KindRun, Mode: "existing", Seed: 1, GenSeed: 1,
		Generate: &workload.Config{
			Platform: model.PlatformA, TargetRefUtil: 1.2, Dist: workload.Uniform, NumVMs: 2,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	if st, err := c.Wait(ctx, sub.ID); err != nil || st.State != server.StateDone {
		b.Fatalf("wait: %v %+v", err, st)
	}
	run, _ := s.Registry().Get(sub.ID)
	want, _ := run.ReportJSON()
	b.SetBytes(int64(len(want)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := c.ReportBytes(ctx, sub.ID)
		if err != nil || len(data) != len(want) {
			b.Fatalf("fetch: %d bytes, %v; want %d", len(data), err, len(want))
		}
	}
}
