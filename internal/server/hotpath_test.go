package server

// Tests of the served decision path: the run's retained status summary,
// first-entry-only stage events, the run-end decision counts, the served
// report's framing, where a posted system is validated, and the
// simulation's miss diagnosis.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"vc2m"
	"vc2m/internal/model"
	"vc2m/internal/obs"
	"vc2m/internal/provenance"
	"vc2m/internal/report"
	"vc2m/internal/workload"
)

// coldExistingReq is the shape of the benchmark's cold-existing requests:
// platform A at reference utilization 1.2 over two VMs, existing CSA.
func coldExistingReq(seed int64) SubmitRequest {
	return SubmitRequest{
		Kind: KindRun, Mode: "existing", Seed: seed, GenSeed: seed,
		Generate: &workload.Config{
			Platform: model.PlatformA, TargetRefUtil: 1.2, Dist: workload.Uniform, NumVMs: 2,
		},
	}
}

// executeNow registers req and executes it on the calling goroutine,
// through the same sink chain and finish path a worker uses. cancelFirst
// cancels the run's context before execution.
func executeNow(s *Server, req SubmitRequest, cancelFirst bool) *Run {
	ctx, cancel := context.WithCancel(context.Background())
	run := s.reg.Add(req, ctx, cancel, obs.TraceContext{}, "")
	if cancelFirst {
		cancel()
	}
	s.execute(ctx, run)
	cancel()
	return run
}

// TestStatusFromRetainedSummary checks that Status, which no longer has
// the report document, reports for every terminal outcome what the
// document (decoded back from the retained bytes) says.
func TestStatusFromRetainedSummary(t *testing.T) {
	s := New(Config{})
	rejectReq := genReq(3)
	rejectReq.Generate.TargetRefUtil = 8.0 // hopeless on 4 cores
	yes, no := true, false
	for _, tc := range []struct {
		name        string
		req         SubmitRequest
		cancel      bool
		state       State
		title       string
		schedulable *bool
	}{
		{"done", genReq(7), false, StateDone, "vc2m-server flattening run (seed 7)", &yes},
		{"rejected", rejectReq, false, StateDone, "vc2m-server flattening run (seed 3)", &no},
		{"sweep", SubmitRequest{Kind: KindSweep, Title: "small sweep", Seed: 2, Sweep: &SweepSpec{
			Platform: "C", UtilMin: 0.5, UtilMax: 1.0, UtilStep: 0.5, TasksetsPerPoint: 2,
		}}, false, StateDone, "small sweep", nil},
		{"failed", SubmitRequest{Kind: KindRun, Title: "no system"}, false, StateFailed, "no system", nil},
		{"canceled", SubmitRequest{Kind: KindRun, Title: "canceled run", Generate: genReq(1).Generate},
			true, StateCanceled, "canceled run", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := executeNow(s, tc.req, tc.cancel)
			st := run.Status()
			if st.State != tc.state || st.Title != tc.title {
				t.Fatalf("status %+v, want state %s title %q", st, tc.state, tc.title)
			}
			if (st.Schedulable == nil) != (tc.schedulable == nil) ||
				(st.Schedulable != nil && *st.Schedulable != *tc.schedulable) {
				t.Fatalf("schedulable %v, want %v", st.Schedulable, tc.schedulable)
			}
			if (st.Error != "") != (tc.state != StateDone) {
				t.Fatalf("state %s with error %q", st.State, st.Error)
			}
			data, ok := run.ReportJSON()
			if ok != (tc.state == StateDone) {
				t.Fatalf("report present %v in state %s", ok, st.State)
			}
			if !ok {
				return
			}
			var doc report.Document
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatal(err)
			}
			if doc.Title != st.Title {
				t.Fatalf("status title %q, document title %q", st.Title, doc.Title)
			}
			if want := doc.Kind == report.KindRun; (st.Schedulable != nil) != want {
				t.Fatalf("%s document: schedulable reported %v", doc.Kind, st.Schedulable)
			}
			if st.Schedulable != nil && *st.Schedulable != (doc.Rejection == nil) {
				t.Fatalf("schedulable %v, document rejection %+v", *st.Schedulable, doc.Rejection)
			}
		})
	}
}

// reportDecisions decodes the decision stream of a done run from its
// report, which holds the run's only copy of it.
func reportDecisions(t *testing.T, run *Run) []provenance.Decision {
	t.Helper()
	data, ok := run.ReportJSON()
	if !ok {
		t.Fatalf("run %+v has no report", run.Status())
	}
	var doc report.Document
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Decisions
}

// TestStageEventsOncePerStage: a cold existing-CSA run alternates between
// the hypervisor-level stages on every permutation, yet publishes at most
// one stage event per distinct stage.
func TestStageEventsOncePerStage(t *testing.T) {
	s := New(Config{})
	run := executeNow(s, coldExistingReq(1), false)
	if st := run.Status(); st.State != StateDone {
		t.Fatalf("run %s: %s", st.State, st.Error)
	}
	transitions, distinct := 0, map[string]bool{}
	prev := ""
	for _, d := range reportDecisions(t, run) {
		if d.Stage != prev {
			transitions++
			prev = d.Stage
		}
		distinct[d.Stage] = true
	}
	if transitions <= len(distinct) {
		t.Fatalf("%d stage transitions over %d stages: the input no longer revisits a stage", transitions, len(distinct))
	}
	sub, backlog := s.events.subscribe(run.ID(), 0)
	s.events.unsubscribe(sub)
	published := map[string]int{}
	for _, ev := range backlog {
		if ev.Type != EventStage {
			continue
		}
		published[ev.Stage]++
		if published[ev.Stage] > 1 {
			t.Fatalf("stage %q published %d times", ev.Stage, published[ev.Stage])
		}
		if !distinct[ev.Stage] {
			t.Fatalf("stage event for %q, which no decision entered", ev.Stage)
		}
	}
	if len(published) != len(distinct) {
		t.Fatalf("stage events for %v, decisions entered %v", published, distinct)
	}
}

// TestDecisionCounterMatchesRunTally: once Done() closes, every
// vc2m_decisions_total{stage,kind} series equals the run's own decision
// tally — zero for the preregistered series the run never reached.
func TestDecisionCounterMatchesRunTally(t *testing.T) {
	s := startServer(t, Config{Workers: 1})
	run, err := s.Submit(coldExistingReq(2))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, run)
	tally := map[[2]string]float64{}
	for _, d := range reportDecisions(t, run) {
		tally[[2]string{d.Stage, d.Kind}]++
	}
	var text strings.Builder
	if err := s.om.reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ValidateExposition(strings.NewReader(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]string]bool{}
	for _, f := range fams {
		if f.Name != "vc2m_decisions_total" {
			continue
		}
		for _, smp := range f.Samples {
			key := [2]string{smp.Labels["stage"], smp.Labels["kind"]}
			seen[key] = true
			if smp.Value != tally[key] { //vc2m:floateq both sides are integer counts
				t.Errorf("vc2m_decisions_total%v = %v, run recorded %v", key, smp.Value, tally[key])
			}
		}
	}
	for key, n := range tally { //vc2m:ordered each key is checked on its own
		if !seen[key] {
			t.Errorf("run recorded %v %v decisions, no series exposed", n, key)
		}
	}
	if len(tally) < 3 {
		t.Fatalf("run recorded only %d (stage, kind) pairs", len(tally))
	}
}

// TestReportServedWithLength: GET /v1/runs/{id}/report answers with the
// run's retained bytes under a Content-Length, not chunked, equal to
// report.Marshal of the same run executed in process; the route is still
// normalized, and the access log and vc2m_http_requests_total count it.
// The done run's recorder keeps no decisions while its status still
// counts them, and the report bytes do not change when the recorder goes
// on recording.
func TestReportServedWithLength(t *testing.T) {
	var logBuf bytes.Buffer
	lg, err := (&obs.LogConfig{Level: "debug"}).Build(&logBuf)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Logger: lg})
	req := coldExistingReq(3)
	run := executeNow(s, req, false)
	retained, ok := run.ReportJSON()
	if !ok {
		t.Fatalf("run %+v has no report", run.Status())
	}
	doc, _, err := executeRun(context.Background(), req, provenance.New(), nil)
	if err != nil {
		t.Fatal(err)
	}
	inProcess, err := report.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(retained, inProcess) {
		t.Fatalf("retained report (%d bytes) differs from the in-process run's (%d bytes)", len(retained), len(inProcess))
	}
	if len(retained) < 64<<10 {
		t.Fatalf("report of %d bytes is too small to have been chunked", len(retained))
	}

	hs := httptest.NewServer(s.Handler())
	resp, err := http.Get(hs.URL + "/v1/runs/" + run.ID() + "/report")
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	hs.Close() // waits for the handler, and so for its access log line
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(retained)) ||
		resp.Header.Get("Content-Length") != strconv.Itoa(len(retained)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("status %d, Content-Length %d (%q), Transfer-Encoding %v; want 200 with length %d, unchunked",
			resp.StatusCode, resp.ContentLength, resp.Header.Get("Content-Length"), resp.TransferEncoding, len(retained))
	}
	if !bytes.Equal(served, retained) {
		t.Fatal("served report differs from the retained bytes")
	}

	const route = "/v1/runs/{id}/report"
	if got := routeLabel(resp.Request); got != route {
		t.Errorf("routeLabel = %q, want %q", got, route)
	}
	if !strings.Contains(logBuf.String(), "route="+route) {
		t.Errorf("access log lacks the report request:\n%s", logBuf.String())
	}
	var text strings.Builder
	if err := s.om.reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if want := `vc2m_http_requests_total{route="` + route + `",method="GET",code="200"} 1`; !strings.Contains(text.String(), want) {
		t.Errorf("exposition lacks %s", want)
	}

	if n := run.prov.Len(); n != 0 || run.Status().Decisions != len(doc.Decisions) {
		t.Fatalf("finished run: recorder holds %d decisions, status counts %d, report has %d",
			n, run.Status().Decisions, len(doc.Decisions))
	}
	run.prov.Record(provenance.Decision{Stage: provenance.StageAdmit, Kind: provenance.KindReject})
	run.prov.Reset()
	run.prov.Record(provenance.Decision{Stage: provenance.StageAdmit, Kind: provenance.KindReject})
	if after, _ := run.ReportJSON(); !bytes.Equal(after, inProcess) {
		t.Fatal("recording after the run finished changed its report")
	}
}

// TestInvalidSystemValidatedAtSubmitAndAllocate: a posted system is
// validated when it is submitted and again by vc2m.Allocate, not by the
// run between them. A system with a table increasing in c is a 400 with
// System.Validate's message over HTTP, and the same system added straight
// to the registry fails with vc2m.Allocate's error, word for word.
func TestInvalidSystemValidatedAtSubmitAndAllocate(t *testing.T) {
	wcet := model.ConstTable(model.PlatformA, 10)
	wcet.Set(model.PlatformA.Cmin, model.PlatformA.Bmin, 5)
	sys := &model.System{Platform: model.PlatformA, VMs: []*model.VM{
		{ID: "v", Tasks: []*model.Task{{ID: "t", VM: "v", Period: 100, WCET: wcet}}},
	}}
	req := SubmitRequest{Kind: KindRun, Mode: "flattening", System: sys}
	want := sys.Validate()
	if want == nil || !strings.Contains(want.Error(), "table increases in c") {
		t.Fatalf("System.Validate() = %v, want a monotonicity error", want)
	}

	s := startServer(t, Config{Workers: 1})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //vc2m:closeflush response body close errors are uninformative by contract
	var msg ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || msg.Error != want.Error() {
		t.Errorf("POST /v1/runs: %d %q, want 400 %q", resp.StatusCode, msg.Error, want)
	}

	_, allocErr := vc2m.Allocate(sys, vc2m.Options{Mode: vc2m.Flattening})
	if !errors.Is(allocErr, model.ErrInvalidSystem) || allocErr.Error() != want.Error() {
		t.Fatalf("vc2m.Allocate: %v, want the invalid-system error %q", allocErr, want)
	}
	st := executeNow(New(Config{}), req, false).Status()
	if st.State != StateFailed || st.Error != allocErr.Error() {
		t.Errorf("registry run: %s %q, want failed %q", st.State, st.Error, allocErr)
	}
}

// overloadedAllocation is a hand-built allocation whose one VCPU carries
// two tasks of 8 ms every 10 ms: it misses deadlines from the first period.
func overloadedAllocation() *model.Allocation {
	tasks := []*model.Task{
		model.SimpleTask("t1", model.PlatformA, 10, 8),
		model.SimpleTask("t2", model.PlatformA, 10, 8),
	}
	for _, task := range tasks {
		task.VM = "vm0"
	}
	return &model.Allocation{
		Platform: model.PlatformA,
		Cores: []*model.CoreAlloc{{
			Core: 0, Cache: 5, BW: 4,
			VCPUs: []*model.VCPU{{
				ID: "v0", VM: "vm0", Period: 10,
				Budget: model.ConstTable(model.PlatformA, 10),
				Tasks:  tasks,
			}},
		}},
	}
}

// TestSimulateDiagnosisMatchesOnePass holds simulate, which diagnoses
// misses from a second, traced run, to the one-pass path it replaced: one
// traced run diagnosed from its own event stream. The result, the
// diagnosis, the counters and the stage spans must be equal.
func TestSimulateDiagnosisMatchesOnePass(t *testing.T) {
	const horizonMs = 200
	a := overloadedAllocation()

	onePassRec, onePassTrace := vc2m.NewMetrics(), obs.NewTrace()
	root := onePassTrace.StartSpan(obs.StageRun)
	want, err := vc2m.Simulate(a, horizonMs, vc2m.SimOptions{RecordTrace: true, Metrics: onePassRec, Span: root})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if want.Missed == 0 {
		t.Fatal("the overloaded allocation missed no deadline")
	}
	wantDiag := vc2m.DiagnoseMisses(want.Events)

	rec, tr := vc2m.NewMetrics(), obs.NewTrace()
	root = tr.StartSpan(obs.StageRun)
	got, diag, err := simulate(a, horizonMs, rec, root)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if diag == nil || !reflect.DeepEqual(diag, wantDiag) {
		t.Errorf("diagnosis %+v, one-pass %+v", diag, wantDiag)
	}
	if got.Events != nil || got.Trace != nil {
		t.Error("the reported run kept its event stream")
	}
	want.Events, want.Trace = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("result %+v, one-pass %+v", got, want)
	}
	if g, w := rec.Snapshot(), onePassRec.Snapshot(); !reflect.DeepEqual(g, w) {
		t.Errorf("counters %+v, one-pass %+v", g, w)
	}
	if g, w := tr.Len(), onePassTrace.Len(); g != w {
		t.Errorf("%d spans, one-pass %d", g, w)
	}

	a.Cores[0].VCPUs[0].Tasks = a.Cores[0].VCPUs[0].Tasks[:1]
	if _, diag, err := simulate(a, horizonMs, nil, nil); err != nil || diag != nil {
		t.Errorf("a run that meets its deadlines: diagnosis %+v, error %v", diag, err)
	}
}
