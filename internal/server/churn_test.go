package server_test

// Churn-endpoint tests: POST /v1/runs/{id}/churn queues an incremental
// warm-start run against a finished base run. The golden test extends the
// byte-identity contract to churn — the served document must equal an
// in-process vc2m.Incremental replay of the same base and events with the
// same seeds — and the lifecycle test covers pipelined submission,
// validation failures, and churn on a base without an allocation.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"vc2m"
	"vc2m/client"
	"vc2m/internal/model"
	"vc2m/internal/provenance"
	"vc2m/internal/report"
	"vc2m/internal/rngutil"
	"vc2m/internal/server"
	"vc2m/internal/workload"
)

// churnVM builds a single-task resource-insensitive arrival on platform A.
func churnVM(id string, util float64) *model.VM {
	const period = 100.0
	task := model.SimpleTask(id+"-t0", model.PlatformA, period, util*period)
	task.VM = id
	return &model.VM{ID: id, Tasks: []*model.Task{task}}
}

// churnEvents builds the golden test's event sequence. Called once for the
// wire submission and once for the in-process replay, so the two sides
// never share (and never cross-mutate) VM objects.
func churnEvents() []server.ChurnEvent {
	return []server.ChurnEvent{
		{Arrivals: []*model.VM{churnVM("newA", 0.3)}},
		{Departures: []string{"vm0"}, Arrivals: []*model.VM{churnVM("newB", 0.25)}},
	}
}

var churnBaseSpec = workload.Config{
	Platform:      model.PlatformA,
	TargetRefUtil: 0.6,
	Dist:          workload.Uniform,
	NumVMs:        3,
}

// TestChurnGoldenByteIdentity is the churn acceptance check: base run +
// churn events through the HTTP API serve a report byte-identical to the
// same base and events replayed in-process through vc2m.Incremental with
// the same seeds.
func TestChurnGoldenByteIdentity(t *testing.T) {
	const genSeed, allocSeed, churnSeed = 42, 0, 9

	_, c := startHTTP(t, server.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	base, err := c.Submit(ctx, server.SubmitRequest{
		Kind:     server.KindRun,
		Mode:     "flattening",
		Seed:     allocSeed,
		GenSeed:  genSeed,
		Generate: &churnBaseSpec,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pipelined: the churn is queued before the base finishes; the server
	// orders them by waiting on the base run internally.
	churn, err := c.Churn(ctx, base.ID, server.SubmitRequest{
		Mode: "flattening",
		Seed: churnSeed,
		Churn: &server.ChurnSpec{
			Events: churnEvents(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Wait(ctx, churn.ID); err != nil || st.State != server.StateDone {
		t.Fatalf("churn wait: %v, state %+v", err, st)
	}
	served, err := c.ReportBytes(ctx, churn.ID)
	if err != nil {
		t.Fatal(err)
	}

	// In-process replay, mirroring executeChurn exactly.
	sys, err := workload.Generate(churnBaseSpec, rngutil.New(genSeed))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := vc2m.Allocate(sys, vc2m.Options{Mode: vc2m.Flattening, Seed: allocSeed})
	if err != nil {
		t.Fatal(err)
	}
	prov := vc2m.NewProvenance()
	for i, ev := range churnEvents() {
		res, err := vc2m.Incremental(cur, vc2m.ChurnDelta{Arrivals: ev.Arrivals, Departures: ev.Departures},
			vc2m.Options{Mode: vc2m.Flattening, Seed: churnSeed + int64(i), Provenance: prov})
		if err != nil {
			t.Fatalf("in-process churn event %d: %v", i, err)
		}
		cur = res.Allocation
	}
	local := marshalReport(t, report.BuildRun(report.RunInput{
		Title:      fmt.Sprintf("vc2m-server churn run (base %s, seed %d)", base.ID, churnSeed),
		Seed:       churnSeed,
		Mode:       "flattening",
		Platform:   cur.Platform,
		Allocation: cur,
		Provenance: prov,
	}))
	if !bytes.Equal(served, local) {
		t.Fatalf("served churn report differs from in-process replay:\nserved %d bytes, in-process %d bytes",
			len(served), len(local))
	}
}

func TestChurnLifecycle(t *testing.T) {
	_, c := startHTTP(t, server.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Unknown base is a 404 at submission time, not a failed run.
	if _, err := c.Churn(ctx, "r9999", server.SubmitRequest{
		Churn: &server.ChurnSpec{Events: churnEvents()},
	}); err == nil {
		t.Error("churn on unknown base accepted")
	}

	base, err := c.Submit(ctx, server.SubmitRequest{
		Kind:     server.KindRun,
		Mode:     "flattening",
		GenSeed:  42,
		Generate: &churnBaseSpec,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A churn needs events; a kind mismatch in the body is overridden by
	// the endpoint, not rejected.
	if _, err := c.Churn(ctx, base.ID, server.SubmitRequest{}); err == nil {
		t.Error("eventless churn accepted")
	}
	if _, err := c.Churn(ctx, base.ID, server.SubmitRequest{
		SimulateMs: 100,
		Churn:      &server.ChurnSpec{Events: churnEvents()},
	}); err == nil {
		t.Error("churn with simulate_ms accepted")
	}

	// Provenance of a done churn run records the incremental stage.
	churn, err := c.Churn(ctx, base.ID, server.SubmitRequest{
		Churn: &server.ChurnSpec{Events: churnEvents()},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, churn.ID)
	if err != nil || st.State != server.StateDone {
		t.Fatalf("churn wait: %v, state %+v", err, st)
	}
	if st.Schedulable == nil || !*st.Schedulable {
		t.Fatalf("done churn run not marked schedulable: %+v", st)
	}
	sawIncremental := false
	if err := c.StreamProvenance(ctx, churn.ID, func(d provenance.Decision) error {
		if d.Stage == provenance.StageIncremental {
			sawIncremental = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !sawIncremental {
		t.Error("churn run recorded no incremental-stage decisions")
	}

	// Churn on a run with no accepted allocation (a rejected base) fails.
	hopeless, err := c.Submit(ctx, server.SubmitRequest{
		Kind: server.KindRun,
		Mode: "flattening",
		System: &model.System{
			Platform: model.PlatformA,
			VMs:      []*model.VM{churnVM("heavy", 1.5)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Wait(ctx, hopeless.ID); err != nil || st.State != server.StateDone {
		t.Fatalf("hopeless base wait: %v, state %+v", err, st)
	}
	badChurn, err := c.Churn(ctx, hopeless.ID, server.SubmitRequest{
		Churn: &server.ChurnSpec{Events: churnEvents()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Wait(ctx, badChurn.ID); err != nil || st.State != server.StateFailed {
		t.Fatalf("churn on rejected base: %v, state %+v (want failed)", err, st)
	}
}

// TestChurnRoundTripLive drives a base run plus churn through a live
// daemon named by VC2M_SERVER_URL (set by `make server-smoke`), checking
// the full round trip against the in-process replay. Skipped when the
// variable is unset, like the other live smoke tests.
func TestChurnRoundTripLive(t *testing.T) {
	url := os.Getenv("VC2M_SERVER_URL")
	if url == "" {
		t.Skip("VC2M_SERVER_URL not set; run via `make server-smoke`")
	}
	const genSeed, allocSeed, churnSeed = 42, 0, 9
	c := client.New(url, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	base, err := c.Submit(ctx, server.SubmitRequest{
		Kind:     server.KindRun,
		Mode:     "flattening",
		Seed:     allocSeed,
		GenSeed:  genSeed,
		Generate: &churnBaseSpec,
	})
	if err != nil {
		t.Fatal(err)
	}
	churn, err := c.Churn(ctx, base.ID, server.SubmitRequest{
		Mode:  "flattening",
		Seed:  churnSeed,
		Churn: &server.ChurnSpec{Events: churnEvents()},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, churn.ID)
	if err != nil || st.State != server.StateDone {
		t.Fatalf("live churn: %v, state %+v", err, st)
	}
	doc, err := c.Report(ctx, churn.ID)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Kind != report.KindRun || doc.Rejection != nil {
		t.Fatalf("live churn report kind %s rejection %+v", doc.Kind, doc.Rejection)
	}

	// Replay in-process and require the same final layout.
	sys, err := workload.Generate(churnBaseSpec, rngutil.New(genSeed))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := vc2m.Allocate(sys, vc2m.Options{Mode: vc2m.Flattening, Seed: allocSeed})
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range churnEvents() {
		res, rerr := vc2m.Incremental(cur, vc2m.ChurnDelta{Arrivals: ev.Arrivals, Departures: ev.Departures},
			vc2m.Options{Mode: vc2m.Flattening, Seed: churnSeed + int64(i)})
		if rerr != nil {
			t.Fatalf("in-process churn event %d: %v", i, rerr)
		}
		cur = res.Allocation
	}
	if doc.Allocation == nil || doc.Allocation.Cores == nil {
		t.Fatal("live churn report carries no allocation")
	}
	if got, want := len(doc.Allocation.Cores), len(cur.Cores); got != want {
		t.Fatalf("live churn allocation uses %d cores, in-process replay %d", got, want)
	}
}
