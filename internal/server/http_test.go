package server_test

// HTTP-level tests: the full submit → poll → fetch report → stream
// provenance loop over httptest, using the typed client — and the golden
// byte-identity check between a served report and the same run executed
// in-process through the facade.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vc2m"
	"vc2m/client"
	"vc2m/internal/model"
	"vc2m/internal/provenance"
	"vc2m/internal/report"
	"vc2m/internal/server"
	"vc2m/internal/workload"
)

func startHTTP(t testing.TB, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	s, hs := startHTTPServer(t, cfg)
	return s, client.New(hs.URL, &http.Client{Timeout: 2 * time.Minute})
}

// startHTTPServer starts a server behind httptest, both stopped at cleanup.
func startHTTPServer(t testing.TB, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	s := server.New(cfg)
	s.Start()
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, hs
}

func submitReq(seed int64, simulateMs float64) server.SubmitRequest {
	return server.SubmitRequest{
		Kind:    server.KindRun,
		Mode:    "flattening",
		GenSeed: seed,
		Generate: &workload.Config{
			Platform:      model.PlatformC,
			TargetRefUtil: 0.8,
			Dist:          workload.Uniform,
		},
		SimulateMs: simulateMs,
	}
}

func TestEndpointLoop(t *testing.T) {
	_, c := startHTTP(t, server.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	if err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}

	sub, err := c.Submit(ctx, submitReq(7, 1100))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if sub.ID == "" {
		t.Fatal("empty run ID")
	}

	// Fetching the report before completion is a 409, not a hang.
	if _, err := c.ReportBytes(ctx, sub.ID); err == nil {
		st, _ := c.Run(ctx, sub.ID)
		if st.State == server.StatePending || st.State == server.StateRunning {
			t.Error("premature report fetch did not error")
		}
	}

	st, err := c.Wait(ctx, sub.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.State != server.StateDone {
		t.Fatalf("state %s (%s), want done", st.State, st.Error)
	}

	doc, err := c.Report(ctx, sub.ID)
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	if doc.Schema != report.SchemaVersion || doc.Kind != report.KindRun {
		t.Fatalf("schema/kind: %s/%s", doc.Schema, doc.Kind)
	}
	if doc.Sim == nil {
		t.Fatal("simulated run has no sim section")
	}

	// The finished stream replays every decision, in sequence order.
	var streamed []provenance.Decision
	if err := c.StreamProvenance(ctx, sub.ID, func(d provenance.Decision) error {
		streamed = append(streamed, d)
		return nil
	}); err != nil {
		t.Fatalf("stream: %v", err)
	}
	if len(streamed) != len(doc.Decisions) {
		t.Fatalf("streamed %d decisions, report has %d", len(streamed), len(doc.Decisions))
	}
	for i, d := range streamed {
		if d.Seq != i {
			t.Fatalf("decision %d has seq %d", i, d.Seq)
		}
	}

	runs, err := c.Runs(ctx)
	if err != nil || len(runs) != 1 || runs[0].ID != sub.ID {
		t.Fatalf("list: %v %+v", err, runs)
	}
	m, err := c.Metrics(ctx)
	if err != nil || m.Submitted != 1 || m.ByState[server.StateDone] != 1 {
		t.Fatalf("metrics: %v %+v", err, m)
	}

	if _, err := c.Run(ctx, "r9999"); err == nil {
		t.Error("unknown run ID did not 404")
	}
}

func TestLiveProvenanceStream(t *testing.T) {
	// Attach the stream while the run is still queued: the reader must
	// follow the live log and terminate when the run does.
	s, c := startHTTP(t, server.Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	run, err := s.Submit(submitReq(5, 0))
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := c.StreamProvenance(ctx, run.ID(), func(provenance.Decision) error {
		count++
		return nil
	}); err != nil {
		t.Fatalf("stream: %v", err)
	}
	st, err := c.Wait(ctx, run.ID())
	if err != nil {
		t.Fatal(err)
	}
	if count != st.Decisions || count == 0 {
		t.Fatalf("streamed %d decisions live, status says %d", count, st.Decisions)
	}
}

func TestBadSubmissionsOverHTTP(t *testing.T) {
	_, c := startHTTP(t, server.Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.Submit(ctx, server.SubmitRequest{Kind: "bogus"}); err == nil {
		t.Error("bad kind accepted over HTTP")
	}
	if _, err := c.Submit(ctx, server.SubmitRequest{}); err == nil {
		t.Error("empty submission accepted over HTTP")
	}
}

// marshalReport is report.Marshal, held to its specification: the bytes
// json.MarshalIndent writes, plus a trailing newline.
func marshalReport(t *testing.T, doc *report.Document) []byte {
	t.Helper()
	data, err := report.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, append(spec, '\n')) {
		t.Fatal("report.Marshal differs from json.MarshalIndent")
	}
	return data
}

// TestUnknownTableMemberOverHTTP: the submit and churn decoders disallow
// unknown fields, and that reaches inside the WCET tables — a table with
// an extra member is a 400, for a run's system and a churn arrival alike.
func TestUnknownTableMemberOverHTTP(t *testing.T) {
	_, hs := startHTTPServer(t, server.Config{Workers: 1})
	newVM := func(id string) *model.VM {
		task := model.SimpleTask(id+"-t0", model.PlatformA, 100, 10)
		task.VM = id
		return &model.VM{ID: id, Tasks: []*model.Task{task}}
	}
	post := func(path string, req server.SubmitRequest, bogus bool) (int, string) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if bogus {
			body = bytes.Replace(body, []byte(`"values":`), []byte(`"bogus":7,"values":`), 1)
		}
		resp, err := http.Post(hs.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close() //vc2m:closeflush response body close errors are uninformative by contract
		msg, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(msg)
	}
	run := server.SubmitRequest{Kind: server.KindRun, System: &model.System{Platform: model.PlatformA, VMs: []*model.VM{newVM("vm0")}}}
	if code, msg := post("/v1/runs", run, true); code != http.StatusBadRequest || !strings.Contains(msg, "bogus") {
		t.Errorf("POST /v1/runs with a bogus table member: %d %s, want 400 naming the member", code, msg)
	}
	code, msg := post("/v1/runs", run, false)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/runs: %d %s", code, msg)
	}
	var sub server.SubmitResponse
	if err := json.Unmarshal([]byte(msg), &sub); err != nil {
		t.Fatal(err)
	}
	churn := server.SubmitRequest{Churn: &server.ChurnSpec{Events: []server.ChurnEvent{{Arrivals: []*model.VM{newVM("vm1")}}}}}
	if code, msg := post("/v1/runs/"+sub.ID+"/churn", churn, true); code != http.StatusBadRequest || !strings.Contains(msg, "bogus") {
		t.Errorf("churn arrival with a bogus table member: %d %s, want 400 naming the member", code, msg)
	}
}

// TestGoldenReportByteIdentity is the acceptance check: a seeded
// allocation submitted through the server returns a vc2m.report/v1
// document byte-identical to the same-seed run executed in-process via
// the facade (the calls vc2m-sim makes).
func TestGoldenReportByteIdentity(t *testing.T) {
	const genSeed, allocSeed = 42, 0
	const simulateMs = 1100.0
	spec := workload.Config{
		Platform:      model.PlatformC,
		TargetRefUtil: 1.0,
		Dist:          workload.BimodalLight,
	}
	title := fmt.Sprintf("vc2m-server flattening run (seed %d)", genSeed)

	// In-process reference, mirroring the batch driver.
	inProcess := func() []byte {
		t.Helper()
		sys, err := vc2m.GenerateWorkload(vc2m.WorkloadConfig{
			Platform:      spec.Platform,
			TargetRefUtil: spec.TargetRefUtil,
			Distribution:  "light",
			Seed:          genSeed,
		})
		if err != nil {
			t.Fatal(err)
		}
		prov := vc2m.NewProvenance()
		in := report.RunInput{
			Title: title, Seed: genSeed, Mode: "flattening",
			Platform: sys.Platform, Provenance: prov,
		}
		a, err := vc2m.Allocate(sys, vc2m.Options{Mode: vc2m.Flattening, Seed: allocSeed, Provenance: prov})
		if err != nil {
			t.Fatal(err)
		}
		in.Allocation = a
		res, err := vc2m.Simulate(a, simulateMs, vc2m.SimOptions{RecordTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		in.Sim = res
		if res.Missed > 0 {
			in.Diagnosis = vc2m.DiagnoseMisses(res.Events)
		}
		return marshalReport(t, report.BuildRun(in))
	}()

	_, c := startHTTP(t, server.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	sub, err := c.Submit(ctx, server.SubmitRequest{
		Kind:       server.KindRun,
		Mode:       "flattening",
		Seed:       allocSeed,
		GenSeed:    genSeed,
		Generate:   &spec,
		SimulateMs: simulateMs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Wait(ctx, sub.ID); err != nil || st.State != server.StateDone {
		t.Fatalf("wait: %v, state %+v", err, st)
	}
	served, err := c.ReportBytes(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, inProcess) {
		t.Fatalf("served report differs from in-process run:\nserved %d bytes, in-process %d bytes",
			len(served), len(inProcess))
	}
}
