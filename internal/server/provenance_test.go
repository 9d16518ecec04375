package server

// Tests of GET /v1/runs/{id}/provenance against the stream a run
// recorded. A done run keeps its decisions only in its report bytes, so
// the endpoint serves them from there; every other run serves them from
// its recorder. Either way the NDJSON must be exactly json.Encoder over
// the recorded decisions, and a streamer attached before the finish must
// move from the recorder to the report at its own index.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"vc2m/internal/model"
	"vc2m/internal/obs"
	"vc2m/internal/provenance"
	"vc2m/internal/report"
	"vc2m/internal/workload"
)

// captureSink encodes each decision the way json.Encoder writes it, as
// the recorder records it, and then wakes the run's streamers. It cancels
// the run once cancelAt decisions are in (never when cancelAt is 0).
type captureSink struct {
	mu sync.Mutex
	//vc2m:guardedby mu
	ndjson bytes.Buffer
	//vc2m:guardedby mu
	n        int
	cancelAt int
	cancel   context.CancelFunc
	next     provenance.Sink
}

func (c *captureSink) Record(d provenance.Decision) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if err := json.NewEncoder(&c.ndjson).Encode(d); err != nil {
		panic(err)
	}
	c.n++
	if c.n == c.cancelAt {
		c.cancel()
	}
	c.mu.Unlock()
	c.next.Record(d)
}

// captured returns the NDJSON of every decision recorded so far and
// their number.
func (c *captureSink) captured() ([]byte, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return bytes.Clone(c.ndjson.Bytes()), c.n
}

// addCapturing registers req as a pending run whose recorder feeds a
// captureSink, so the test holds a copy of the stream taken before the
// run ends. The run executes with s.execute(run.execCtx, run).
func addCapturing(t *testing.T, s *Server, req SubmitRequest, cancelAt int) (*Run, *captureSink) {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	run := s.reg.Add(req, ctx, cancel, obs.TraceContext{}, "")
	sink := &captureSink{cancelAt: cancelAt, cancel: cancel, next: run.pub}
	run.prov = provenance.NewStreaming(sink)
	return run, sink
}

// getProvenance reads the whole /provenance response of a run.
func getProvenance(url, id string) ([]byte, error) {
	resp, err := http.Get(url + "/v1/runs/" + id + "/provenance")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() //vc2m:closeflush response body close errors are uninformative by contract
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET provenance: status %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// finishedEvent returns the terminal lifecycle event s published for run.
func finishedEvent(t *testing.T, s *Server, run *Run) RunEvent {
	t.Helper()
	sub, backlog := s.events.subscribe(run.ID(), 0)
	s.events.unsubscribe(sub)
	for _, ev := range backlog {
		if ev.Terminal() {
			return ev
		}
	}
	t.Fatalf("run %s published no terminal event", run.ID())
	return RunEvent{}
}

// singleTaskVM is a one-task, resource-insensitive VM on platform A.
func singleTaskVM(id string, util float64) *model.VM {
	task := model.SimpleTask(id+"-t0", model.PlatformA, 100, util*100)
	task.VM = id
	return &model.VM{ID: id, Tasks: []*model.Task{task}}
}

// TestServedProvenanceMatchesRecordedStream covers every kind of finished
// run: /provenance serves json.Encoder's bytes of the stream the run
// recorded, and the run's status and finished event count the same
// decisions. A done run's recorder holds none of them afterwards; a
// failed or canceled run keeps them there.
func TestServedProvenanceMatchesRecordedStream(t *testing.T) {
	s := New(Config{})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	rejectReq := genReq(3)
	rejectReq.Generate.TargetRefUtil = 8.0 // hopeless on 4 cores
	base := executeNow(s, SubmitRequest{Kind: KindRun, Mode: "flattening", GenSeed: 42,
		Generate: &workload.Config{Platform: model.PlatformA, TargetRefUtil: 0.6, Dist: workload.Uniform, NumVMs: 3}}, false)
	if base.Allocation() == nil {
		t.Fatalf("churn base run %+v has no allocation", base.Status())
	}
	churnReq := func(events ...ChurnEvent) SubmitRequest {
		return SubmitRequest{Kind: KindChurn, Mode: "flattening", Seed: 9,
			Churn: &ChurnSpec{BaseRun: base.ID(), Events: events}}
	}

	for _, tc := range []struct {
		name     string
		req      SubmitRequest
		cancelAt int
		state    State
		rejected bool
	}{
		{"done", coldExistingReq(1), 0, StateDone, false},
		{"rejected", rejectReq, 0, StateDone, true},
		{"sweep", SubmitRequest{Kind: KindSweep, Title: "small sweep", Seed: 2, Sweep: &SweepSpec{
			Platform: "C", UtilMin: 0.5, UtilMax: 1.0, UtilStep: 0.5, TasksetsPerPoint: 2,
		}}, 0, StateDone, false},
		{"churn", churnReq(
			ChurnEvent{Arrivals: []*model.VM{singleTaskVM("newA", 0.3)}},
			ChurnEvent{Departures: []string{"vm0"}, Arrivals: []*model.VM{singleTaskVM("newB", 0.25)}},
		), 0, StateDone, false},
		{"failed", churnReq(
			ChurnEvent{Arrivals: []*model.VM{singleTaskVM("newA", 0.3)}},
			ChurnEvent{Departures: []string{"no-such-vm"}},
		), 0, StateFailed, false},
		{"canceled", coldExistingReq(2), 5, StateCanceled, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run, sink := addCapturing(t, s, tc.req, tc.cancelAt)
			s.execute(run.execCtx, run)
			want, n := sink.captured()
			st := run.Status()
			if st.State != tc.state {
				t.Fatalf("state %s (%s), want %s", st.State, st.Error, tc.state)
			}
			if n == 0 {
				t.Fatal("the run recorded no decisions")
			}
			if got := finishedEvent(t, s, run); got.Decisions != n || st.Decisions != n ||
				(got.Type == EventRejected) != tc.rejected {
				t.Fatalf("recorded %d decisions; status counts %d, %s event counts %d",
					n, st.Decisions, got.Type, got.Decisions)
			}
			_, hasReport := run.ReportJSON()
			if kept := run.prov.Len(); hasReport != (tc.state == StateDone) || hasReport != (kept == 0) ||
				(!hasReport && kept != n) {
				t.Fatalf("%s run (report %v) keeps %d of its %d decisions in its recorder", st.State, hasReport, kept, n)
			}
			served, err := getProvenance(hs.URL, run.ID())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(served, want) {
				t.Fatalf("served %d bytes (%d lines), recorded %d bytes (%d lines)",
					len(served), bytes.Count(served, []byte("\n")), len(want), n)
			}
		})
	}
}

// TestProvenanceStreamAttachedWhilePending: a client that attaches while
// the run is still queued follows it to the end and reads exactly the
// recorded stream, whichever part of it came live and whichever from the
// report.
func TestProvenanceStreamAttachedWhilePending(t *testing.T) {
	s := New(Config{})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	run, sink := addCapturing(t, s, coldExistingReq(4), 0)
	type result struct {
		body []byte
		err  error
	}
	served := make(chan result, 1)
	go func() {
		body, err := getProvenance(hs.URL, run.ID())
		served <- result{body, err}
	}()
	for i := 0; !run.pub.waiting(); i++ {
		if i == 30000 {
			t.Fatal("the streamer never attached")
		}
		time.Sleep(time.Millisecond)
	}
	s.execute(run.execCtx, run)
	want, _ := sink.captured()
	got := <-served
	if got.err != nil {
		t.Fatal(got.err)
	}
	if !bytes.Equal(got.body, want) {
		t.Fatalf("served %d bytes, recorded %d", len(got.body), len(want))
	}
}

// waiting reports whether a streamer is blocked on the next notify.
func (p *pubSub) waiting() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ch != nil
}

// gatedWriter is a flushable ResponseWriter whose Flush reports the lines
// written so far and then blocks until the test releases it, so a test
// decides what happens between two passes of a streaming handler.
type gatedWriter struct {
	header  http.Header
	flushed chan int
	release chan struct{}
	mu      sync.Mutex
	//vc2m:guardedby mu
	body bytes.Buffer
}

func (w *gatedWriter) Header() http.Header { return w.header }
func (w *gatedWriter) WriteHeader(int)     {}

func (w *gatedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.body.Write(p)
}

func (w *gatedWriter) Flush() {
	w.flushed <- bytes.Count(w.bytes(), []byte("\n"))
	<-w.release
}

func (w *gatedWriter) bytes() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return bytes.Clone(w.body.Bytes())
}

// TestProvenanceStreamSwitchesAtItsIndex drives the handler pass by pass.
// It has streamed the first half of a run's decisions live when the rest
// is recorded and the run finishes. A done run then has its decisions in
// its report only, and the handler takes the second half from there; a
// failed run keeps them in its recorder, and the handler drains them from
// there. Either way the stream has no gap and no duplicate.
func TestProvenanceStreamSwitchesAtItsIndex(t *testing.T) {
	doc, _, err := executeRun(context.Background(), coldExistingReq(5), provenance.New(), nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := report.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, d := range doc.Decisions {
		if err := enc.Encode(d); err != nil {
			t.Fatal(err)
		}
	}
	half := len(doc.Decisions) / 2
	for _, state := range []State{StateDone, StateFailed} {
		t.Run(string(state), func(t *testing.T) {
			s := New(Config{})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			run := s.reg.Add(SubmitRequest{Kind: KindRun}, ctx, cancel, obs.TraceContext{}, "")
			run.setRunning()
			w := &gatedWriter{header: http.Header{}, flushed: make(chan int), release: make(chan struct{})}
			req := httptest.NewRequest(http.MethodGet, "/v1/runs/"+run.ID()+"/provenance", nil)
			req.SetPathValue("id", run.ID())
			returned := make(chan struct{})
			go func() {
				s.handleProvenance(w, req)
				close(returned)
			}()
			release := func() {
				t.Helper()
				select { //vc2m:ctxfree test helper; the handler's return bounds the wait
				case w.release <- struct{}{}:
				case <-returned:
					t.Fatal("the handler returned before the run finished")
				}
			}
			pass := func(wantLines int) {
				t.Helper()
				select { //vc2m:ctxfree test helper; the timeout case bounds the wait
				case n := <-w.flushed:
					if n != wantLines {
						t.Fatalf("pass streamed %d lines in all, want %d", n, wantLines)
					}
				case <-time.After(30 * time.Second):
					t.Fatal("the handler never flushed")
				}
			}

			pass(0)
			for _, d := range doc.Decisions[:half] {
				run.prov.Record(d)
			}
			release()
			pass(half)
			for _, d := range doc.Decisions[half:] {
				run.prov.Record(d)
			}
			if state == StateDone {
				s.finishRun(run, state, doc, data, "")
			} else {
				s.finishRun(run, state, nil, nil, "failed on purpose")
			}
			release()
			select { //vc2m:ctxfree test helper; the timeout case bounds the wait
			case <-returned:
			case <-time.After(30 * time.Second):
				t.Fatal("the handler did not return after the run finished")
			}
			if got := w.bytes(); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("streamed %d lines (%d bytes), want %d (%d bytes)",
					bytes.Count(got, []byte("\n")), len(got), len(doc.Decisions), want.Len())
			}
			if kept, st := run.prov.Len(), run.Status(); st.Decisions != len(doc.Decisions) ||
				(state == StateDone) != (kept == 0) {
				t.Fatalf("%s run: recorder keeps %d, status counts %d of %d decisions",
					state, kept, st.Decisions, len(doc.Decisions))
			}
		})
	}
}
