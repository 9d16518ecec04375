package server_test

// SSE and trace-propagation tests over the public surfaces: the run-event
// lifecycle stream, client Wait's long-poll loop (one request shape,
// cancellation, riding a server restart, a server whose event stream is
// unreachable), end-to-end traceparent adoption including the
// malformed-header restart semantics, churn trace correlation, and the
// self-contained dashboard page.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"vc2m/client"
	"vc2m/internal/obs"
	"vc2m/internal/server"
)

// errRunEnded stops runEvents' stream at the run's terminal event.
var errRunEnded = errors.New("run reached its terminal event")

// runEvents follows one run's lifecycle over the fleet-wide stream: it
// replays GET /v1/events from sequence 0 (everything the ring retains),
// hands fn the events of run id in order, and returns nil right after
// that run's terminal event. A stream that ends first is an error.
func runEvents(ctx context.Context, c *client.Client, id string, fn func(server.RunEvent) error) error {
	_, err := c.StreamEvents(ctx, 0, func(ev server.RunEvent) error {
		if ev.Run != id {
			return nil
		}
		if err := fn(ev); err != nil {
			return err
		}
		if ev.Terminal() {
			return errRunEnded
		}
		return nil
	})
	switch {
	case errors.Is(err, errRunEnded):
		return nil
	case err == nil:
		return fmt.Errorf("event stream ended before run %s's terminal event", id)
	}
	return err
}

func TestRunEventLifecycleSequence(t *testing.T) {
	_, c := startHTTP(t, server.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	tc := obs.NewTraceContext()
	sub, err := c.Submit(obs.ContextWithTraceContext(ctx, tc), submitReq(7, 1100))
	if err != nil {
		t.Fatal(err)
	}

	var events []server.RunEvent
	if err := runEvents(ctx, c, sub.ID, func(ev server.RunEvent) error {
		events = append(events, ev)
		return nil
	}); err != nil {
		t.Fatalf("stream run events: %v", err)
	}
	if len(events) < 4 {
		t.Fatalf("lifecycle stream delivered %d events, want at least queued/started/stage/finished", len(events))
	}
	if events[0].Type != server.EventQueued || events[1].Type != server.EventStarted {
		t.Fatalf("lifecycle starts %q,%q, want queued,started", events[0].Type, events[1].Type)
	}
	last := events[len(events)-1]
	if !last.Terminal() || last.Type != server.EventFinished {
		t.Fatalf("lifecycle ends with %q, want finished", last.Type)
	}
	stages := 0
	for i, ev := range events {
		if ev.Run != sub.ID {
			t.Fatalf("event %d is for run %q, want %q", i, ev.Run, sub.ID)
		}
		if ev.TraceID != tc.TraceID {
			t.Fatalf("event %d carries trace %q, want the client's %q", i, ev.TraceID, tc.TraceID)
		}
		if i > 0 && ev.Seq <= events[i-1].Seq {
			t.Fatalf("sequence numbers not strictly increasing: %d then %d", events[i-1].Seq, ev.Seq)
		}
		if ev.Type == server.EventStage {
			stages++
		}
		if ev.Terminal() && i != len(events)-1 {
			t.Fatalf("terminal event at index %d of %d", i, len(events))
		}
	}
	if stages == 0 {
		t.Error("no stage events in the lifecycle stream")
	}

	// A late subscriber replays the retained history and terminates
	// immediately instead of hanging on a finished run.
	var replay []server.RunEvent
	if err := runEvents(ctx, c, sub.ID, func(ev server.RunEvent) error {
		replay = append(replay, ev)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(replay) != len(events) || !replay[len(replay)-1].Terminal() {
		t.Fatalf("replay delivered %d events (live saw %d), terminal last: %v",
			len(replay), len(events), replay[len(replay)-1].Terminal())
	}

	// The wire status reports the same trace the client minted.
	st, err := c.Run(ctx, sub.ID)
	if err != nil || st.TraceID != tc.TraceID {
		t.Fatalf("status trace %q (err %v), want %q", st.TraceID, err, tc.TraceID)
	}
}

func TestWaitCancellation(t *testing.T) {
	// A constructed-but-never-Started server parks the run in the queue
	// forever: Wait sits in a long poll and must unwind promptly when the
	// caller cancels, not linger until the server's wait cap.
	s := server.New(server.Config{Workers: 1})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })

	run, err := s.Submit(submitReq(5, 0))
	if err != nil {
		t.Fatal(err)
	}
	c := client.New(hs.URL, &http.Client{})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.Wait(ctx, run.ID())
		errc <- err
	}()

	time.Sleep(100 * time.Millisecond) // let Wait's long poll reach the server
	cancel()
	select {
	case err := <-errc:
		if err == nil || ctx.Err() == nil {
			t.Fatalf("canceled Wait returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait did not return after cancellation")
	}
}

// recordingTransport notes every request it carries as "METHOD
// path?query", so a test can pin exactly which requests Wait sends.
type recordingTransport struct {
	rt   http.RoundTripper
	mu   sync.Mutex
	reqs []string
}

func (rt *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rt.mu.Lock()
	rt.reqs = append(rt.reqs, req.Method+" "+req.URL.RequestURI())
	rt.mu.Unlock()
	return rt.rt.RoundTrip(req)
}

// take returns the requests recorded so far and starts a fresh record.
func (rt *recordingTransport) take() []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	reqs := rt.reqs
	rt.reqs = nil
	return reqs
}

// count reports how many recorded requests equal req.
func (rt *recordingTransport) count(req string) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	n := 0
	for _, r := range rt.reqs {
		if r == req {
			n++
		}
	}
	return n
}

// longPollRequest is the one request Wait may send for run id.
func longPollRequest(id string) string {
	return http.MethodGet + " /v1/runs/" + id + "?wait=1"
}

func TestWaitLongPollsOnly(t *testing.T) {
	// Wait has one path: the ?wait=1 long poll, never an event stream. The
	// server is Started only once Wait's first poll is out, so that poll
	// meets a run that is not done; a second Wait on the finished run, and
	// one on an unknown run, must each cost exactly one request.
	s := server.New(server.Config{Workers: 1})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	run, err := s.Submit(submitReq(7, 1100))
	if err != nil {
		t.Fatal(err)
	}
	want := longPollRequest(run.ID())

	tr := &recordingTransport{rt: &http.Transport{}}
	t.Cleanup(tr.rt.(*http.Transport).CloseIdleConnections)
	c := client.New(hs.URL, &http.Client{Transport: tr})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	type result struct {
		st  server.RunStatus
		err error
	}
	resc := make(chan result, 1)
	go func() {
		st, err := c.Wait(ctx, run.ID())
		resc <- result{st, err}
	}()
	sentDeadline := time.Now().Add(30 * time.Second) //vc2m:wallclock test pacing only
	for tr.count(want) == 0 {
		if time.Now().After(sentDeadline) { //vc2m:wallclock test pacing only
			t.Fatalf("Wait sent no long poll; requests %q", tr.take())
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.Start()
	res := <-resc
	if res.err != nil || res.st.State != server.StateDone {
		t.Fatalf("Wait on a pending run: %v, state %+v", res.err, res.st)
	}
	reqs := tr.take()
	for _, r := range reqs {
		if r != want {
			t.Fatalf("Wait on a pending run sent %q; want only %q (all requests %q)", r, want, reqs)
		}
	}

	st, err := c.Wait(ctx, run.ID())
	if err != nil || st.State != server.StateDone {
		t.Fatalf("Wait on a finished run: %v, state %+v", err, st)
	}
	if reqs := tr.take(); !slices.Equal(reqs, []string{want}) {
		t.Fatalf("Wait on a finished run sent %q, want exactly [%q]", reqs, want)
	}

	// An HTTP error answer ends Wait at once: one request, no retry.
	if _, err := c.Wait(ctx, "r9999"); err == nil {
		t.Fatal("Wait on an unknown run returned no error")
	}
	if reqs, want := tr.take(), longPollRequest("r9999"); !slices.Equal(reqs, []string{want}) {
		t.Fatalf("Wait on an unknown run sent %q, want exactly [%q]", reqs, want)
	}
}

func TestWaitReconnectAcrossRestart(t *testing.T) {
	// Server A accepts the run but is never Started, so the run stays
	// pending while the client's Wait long-polls it. A is then killed and
	// a fresh server B — deterministic IDs give the same run the same ID
	// r0001 — binds the same address and completes it. Wait must ride the
	// restart: poll again after the dropped connection and return the
	// terminal status from B.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	sA := server.New(server.Config{Workers: 1})
	t.Cleanup(func() { _ = sA.Shutdown(context.Background()) })
	hsA := &http.Server{Handler: sA.Handler()}
	go func() { _ = hsA.Serve(ln) }()

	runA, err := sA.Submit(submitReq(5, 0))
	if err != nil {
		t.Fatal(err)
	}

	tr := &recordingTransport{rt: &http.Transport{}}
	t.Cleanup(tr.rt.(*http.Transport).CloseIdleConnections)
	c := client.New("http://"+addr, &http.Client{Transport: tr})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	type result struct {
		st  server.RunStatus
		err error
	}
	resc := make(chan result, 1)
	go func() {
		st, err := c.Wait(ctx, runA.ID())
		resc <- result{st, err}
	}()

	// Wait until the client's long poll is out before killing A, so the
	// retry path is genuinely exercised.
	poll := longPollRequest(runA.ID())
	subDeadline := time.Now().Add(30 * time.Second) //vc2m:wallclock test pacing only
	for tr.count(poll) == 0 {
		if time.Now().After(subDeadline) { //vc2m:wallclock test pacing only
			t.Fatal("Wait never sent a long poll")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := hsA.Close(); err != nil {
		t.Fatal(err)
	}

	// Rebind the same address. The listener is closed, so this succeeds
	// almost immediately; retry briefly for scheduler slack.
	var ln2 net.Listener
	bindDeadline := time.Now().Add(5 * time.Second) //vc2m:wallclock test pacing only
	for {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(bindDeadline) { //vc2m:wallclock test pacing only
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	sB := server.New(server.Config{Workers: 1})
	sB.Start()
	t.Cleanup(func() {
		sctx, scancel := context.WithTimeout(context.Background(), time.Minute)
		defer scancel()
		_ = sB.Shutdown(sctx)
	})
	// Submit before serving HTTP so r0001 exists the moment the client
	// polls again (a 404 would end Wait with an error instead).
	runB, err := sB.Submit(submitReq(5, 0))
	if err != nil {
		t.Fatal(err)
	}
	if runB.ID() != runA.ID() {
		t.Fatalf("restarted server minted %s, want %s", runB.ID(), runA.ID())
	}
	hsB := &http.Server{Handler: sB.Handler()}
	t.Cleanup(func() { _ = hsB.Close() })
	go func() { _ = hsB.Serve(ln2) }()

	select { //vc2m:ctxfree the timeout case bounds the wait
	case res := <-resc:
		if res.err != nil || res.st.State != server.StateDone {
			t.Fatalf("Wait across restart: %v, state %+v", res.err, res.st)
		}
		if res.st.TraceID != runB.TraceContext().TraceID {
			t.Errorf("terminal status carries trace %q, want server B's %q", res.st.TraceID, runB.TraceContext().TraceID)
		}
	case <-time.After(90 * time.Second):
		t.Fatal("Wait did not complete after the server restart")
	}
	if n := tr.count(poll); n < 2 {
		t.Errorf("Wait sent %d long polls across the restart, want at least 2", n)
	}
}

func TestMalformedTraceparentIgnored(t *testing.T) {
	// W3C restart semantics: a garbage traceparent never rejects the
	// request — the server ignores it and mints a fresh, valid trace.
	s := server.New(server.Config{Workers: 1})
	s.Start()
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	body, err := json.Marshal(submitReq(7, 0))
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceparentHeader, "garbage-not-a-traceparent")
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //vc2m:closeflush response body close errors are uninformative by contract
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submission with malformed traceparent: %s, want 202", resp.Status)
	}
	var sub server.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}

	c := client.New(hs.URL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := c.Wait(ctx, sub.ID)
	if err != nil || st.State != server.StateDone {
		t.Fatalf("wait: %v, state %+v", err, st)
	}
	if tc, ok := obs.ParseTraceparent("00-" + st.TraceID + "-" + obs.NewSpanID() + "-00"); !ok || !tc.Valid() {
		t.Fatalf("minted trace ID %q is not a valid W3C trace ID", st.TraceID)
	}
}

func TestChurnPipelinedTraceCorrelation(t *testing.T) {
	// The base run and the pipelined churn run are separate requests with
	// separate traces; each run must keep its own submitter's trace even
	// though churn execution internally waits on the base run.
	_, c := startHTTP(t, server.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	tcBase, tcChurn := obs.NewTraceContext(), obs.NewTraceContext()
	base, err := c.Submit(obs.ContextWithTraceContext(ctx, tcBase), server.SubmitRequest{
		Kind:     server.KindRun,
		Mode:     "flattening",
		GenSeed:  42,
		Generate: &churnBaseSpec,
	})
	if err != nil {
		t.Fatal(err)
	}
	churn, err := c.Churn(obs.ContextWithTraceContext(ctx, tcChurn), base.ID, server.SubmitRequest{
		Mode:  "flattening",
		Seed:  9,
		Churn: &server.ChurnSpec{Events: churnEvents()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Wait(ctx, churn.ID); err != nil || st.State != server.StateDone {
		t.Fatalf("churn wait: %v, state %+v", err, st)
	}

	stBase, err := c.Run(ctx, base.ID)
	if err != nil || stBase.TraceID != tcBase.TraceID {
		t.Fatalf("base trace %q (err %v), want %q", stBase.TraceID, err, tcBase.TraceID)
	}
	stChurn, err := c.Run(ctx, churn.ID)
	if err != nil || stChurn.TraceID != tcChurn.TraceID {
		t.Fatalf("churn trace %q (err %v), want %q", stChurn.TraceID, err, tcChurn.TraceID)
	}

	// The replayed stream shows one churn-applied event per churn event,
	// numbered from 1, each carrying the churn submitter's trace.
	var applied []server.RunEvent
	if err := runEvents(ctx, c, churn.ID, func(ev server.RunEvent) error {
		if ev.Type == server.EventChurn {
			applied = append(applied, ev)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(applied) != len(churnEvents()) {
		t.Fatalf("%d churn-applied events, want %d", len(applied), len(churnEvents()))
	}
	for i, ev := range applied {
		if ev.ChurnEvent != i+1 || ev.TraceID != tcChurn.TraceID {
			t.Fatalf("churn-applied %d: number %d trace %q, want %d / %q",
				i, ev.ChurnEvent, ev.TraceID, i+1, tcChurn.TraceID)
		}
		if ev.Admitted+ev.Rejected == 0 {
			t.Errorf("churn-applied %d reports no admission outcome: %+v", i, ev)
		}
	}
}

func TestDashboardSelfContained(t *testing.T) {
	s := server.New(server.Config{Workers: 1})
	s.Start()
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	resp, err := hs.Client().Get(hs.URL + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //vc2m:closeflush response body close errors are uninformative by contract
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /dashboard: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("dashboard content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	page := string(body)
	for _, want := range []string{"EventSource", "/v1/events", "/api/metrics", "/metrics"} {
		if !strings.Contains(page, want) {
			t.Errorf("dashboard page does not reference %q", want)
		}
	}
	// Self-contained: the page must load no external resource at all.
	for _, banned := range []string{"http://", "https://", "<link", "src="} {
		if strings.Contains(page, banned) {
			t.Errorf("dashboard page contains %q — it must be fully inline", banned)
		}
	}
}

// TestEventLifecycleLive watches a real daemon named by VC2M_SERVER_URL
// (set by `make server-smoke`): it submits a run, tails its event stream,
// and asserts the lifecycle ordering and trace propagation hold over a
// genuine HTTP connection. Skipped when the variable is unset.
func TestEventLifecycleLive(t *testing.T) {
	url := os.Getenv("VC2M_SERVER_URL")
	if url == "" {
		t.Skip("VC2M_SERVER_URL not set; run via `make server-smoke`")
	}
	c := client.New(url, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	tc := obs.NewTraceContext()
	sub, err := c.Submit(obs.ContextWithTraceContext(ctx, tc), submitReq(11, 500))
	if err != nil {
		t.Fatal(err)
	}
	var types []string
	if err := runEvents(ctx, c, sub.ID, func(ev server.RunEvent) error {
		if ev.TraceID != tc.TraceID {
			return fmt.Errorf("event %d trace %q, want %q", ev.Seq, ev.TraceID, tc.TraceID)
		}
		types = append(types, ev.Type)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(types) < 3 || types[0] != server.EventQueued || types[1] != server.EventStarted ||
		types[len(types)-1] != server.EventFinished {
		t.Fatalf("live lifecycle %v, want queued, started, ..., finished", types)
	}
	st, err := c.Run(ctx, sub.ID)
	if err != nil || st.State != server.StateDone || st.TraceID != tc.TraceID {
		t.Fatalf("live status %+v (err %v), want done with trace %q", st, err, tc.TraceID)
	}

	// The live daemon serves the self-contained dashboard too.
	resp, err := http.Get(strings.TrimRight(url, "/") + "/dashboard")
	if err != nil {
		t.Fatalf("GET /dashboard: %v", err)
	}
	defer resp.Body.Close() //vc2m:closeflush response body close errors are uninformative by contract
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(page), "EventSource") {
		t.Fatalf("live dashboard: %s, EventSource present: %v",
			resp.Status, strings.Contains(string(page), "EventSource"))
	}
}
