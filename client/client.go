// Package client is the typed Go client for the vc2m-server HTTP API.
// It speaks the same wire types as internal/server (SubmitRequest,
// RunStatus, ...) and fetches report documents as raw bytes, preserving
// the server's byte-identical report guarantee end to end.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"vc2m/internal/obs"
	"vc2m/internal/provenance"
	"vc2m/internal/report"
	"vc2m/internal/server"
)

// Client talks to one vc2m-server instance.
type Client struct {
	base string
	hc   *http.Client
}

// New builds a client for the server at base (e.g. "http://127.0.0.1:8700").
// A nil http.Client uses a default with a 5-minute overall timeout, which
// bounds every request, streams included; pass your own http.Client for
// streams that may outlast it. Wait is not such a stream: each of its long
// polls ends well within the default.
func New(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{Timeout: 5 * time.Minute}
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// do issues one request and decodes the JSON response into out (skipped
// when out is nil). Non-2xx responses are returned as errors carrying
// the server's error message.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	obs.InjectTraceContext(req, traceContext(ctx))
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close() //vc2m:closeflush response body close errors are uninformative by contract
	data, err := readBody(resp)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return apiError(resp.StatusCode, data)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// traceContext resolves the W3C trace context a request propagates: the
// one the caller planted via obs.ContextWithTraceContext — so a whole
// submit/wait/fetch conversation shares one trace — or a fresh trace
// minted per request. Every client request therefore carries a
// traceparent header, and the server's spans, lifecycle events and
// latency exemplars all name a trace the client knows.
func traceContext(ctx context.Context) obs.TraceContext {
	if tc, ok := obs.TraceContextFromContext(ctx); ok {
		return tc
	}
	return obs.NewTraceContext()
}

// apiError turns a non-2xx response into an error, preferring the
// server's structured message.
func apiError(code int, body []byte) error {
	var er server.ErrorResponse
	if err := json.Unmarshal(body, &er); err == nil && er.Error != "" {
		return fmt.Errorf("server: %s (HTTP %d)", er.Error, code)
	}
	return fmt.Errorf("server: HTTP %d: %s", code, bytes.TrimSpace(body))
}

// Health checks liveness.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Metrics fetches the service gauges from /api/metrics (the JSON surface;
// GET /metrics is the Prometheus text exposition).
func (c *Client) Metrics(ctx context.Context) (server.ServiceMetrics, error) {
	var m server.ServiceMetrics
	err := c.do(ctx, http.MethodGet, "/api/metrics", nil, &m)
	return m, err
}

// Submit queues a run and returns its ID.
func (c *Client) Submit(ctx context.Context, req server.SubmitRequest) (server.SubmitResponse, error) {
	var resp server.SubmitResponse
	err := c.do(ctx, http.MethodPost, "/v1/runs", req, &resp)
	return resp, err
}

// Runs lists every registered run in submission order.
func (c *Client) Runs(ctx context.Context) ([]server.RunStatus, error) {
	var out []server.RunStatus
	err := c.do(ctx, http.MethodGet, "/v1/runs", nil, &out)
	return out, err
}

// Run fetches one run's status.
func (c *Client) Run(ctx context.Context, id string) (server.RunStatus, error) {
	var st server.RunStatus
	err := c.do(ctx, http.MethodGet, "/v1/runs/"+id, nil, &st)
	return st, err
}

// Wait blocks until the run reaches a terminal state (or ctx expires). It
// long-polls GET /v1/runs/{id}?wait=1, which the server answers once the
// run is terminal or its wait cap expires; a non-terminal answer polls
// again. A transport error (a dropped connection, a restarting server) is
// retried after waitRetryDelay, up to waitMaxFailures in a row, so Wait
// rides a server restart. An HTTP error answer, such as a 404 for an
// unknown run, returns at once.
func (c *Client) Wait(ctx context.Context, id string) (server.RunStatus, error) {
	failures := 0
	for {
		var st server.RunStatus
		err := c.do(ctx, http.MethodGet, "/v1/runs/"+id+"?wait=1", nil, &st)
		var transport *url.Error
		switch {
		case err == nil:
			switch st.State {
			case server.StateDone, server.StateFailed, server.StateCanceled:
				return st, nil
			}
			failures = 0 // the wait cap expired: poll again
			continue
		case ctx.Err() != nil:
			return server.RunStatus{}, ctx.Err()
		case !errors.As(err, &transport):
			return server.RunStatus{}, err
		}
		failures++
		if failures >= waitMaxFailures {
			return server.RunStatus{}, err
		}
		t := time.NewTimer(waitRetryDelay)
		select {
		case <-ctx.Done():
			t.Stop()
			return server.RunStatus{}, ctx.Err()
		case <-t.C:
		}
	}
}

const (
	// waitRetryDelay paces Wait's retries after a transport error — long
	// enough not to hammer a restarting server, short enough to resume
	// promptly.
	waitRetryDelay = 200 * time.Millisecond
	// waitMaxFailures is how many consecutive transport errors Wait
	// tolerates before it returns the last one.
	waitMaxFailures = 10
)

// StreamEvents follows the server's fleet-wide run-lifecycle stream
// (GET /v1/events), invoking fn for every event until the stream ends, fn
// returns an error, or ctx is canceled. lastEventID resumes after a prior
// sequence number; 0 first replays every event the server still retains
// (its replay ring holds the last 512), then goes live. The highest
// sequence number seen is returned so callers can reconnect where they
// left off. The transport
// client must not impose an overall timeout shorter than the watch (pass
// a dedicated http.Client to New for long streams). The sequence number is
// returned on error too, and the error is nil on a clean stream end.
func (c *Client) StreamEvents(ctx context.Context, lastEventID uint64, fn func(server.RunEvent) error) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/events", nil)
	if err != nil {
		return lastEventID, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if lastEventID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastEventID, 10))
	}
	obs.InjectTraceContext(req, traceContext(ctx))
	resp, err := c.hc.Do(req)
	if err != nil {
		return lastEventID, err
	}
	defer resp.Body.Close() //vc2m:closeflush response body close errors are uninformative by contract
	if resp.StatusCode != http.StatusOK ||
		!strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 8*1024))
		return lastEventID, apiError(resp.StatusCode, data)
	}

	maxSeq := lastEventID
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var eventName string
	var data []byte
	dispatch := func() error {
		defer func() { eventName, data = "", nil }()
		if len(data) == 0 || eventName == "dropped" {
			// Comments, keepalives and drop notices carry no run event.
			return nil
		}
		var ev server.RunEvent
		if err := json.Unmarshal(data, &ev); err != nil {
			return fmt.Errorf("client: bad event payload: %w", err)
		}
		if ev.Seq > maxSeq {
			maxSeq = ev.Seq
		}
		return fn(ev)
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if err := dispatch(); err != nil {
				return maxSeq, err
			}
		case strings.HasPrefix(line, ":"): // comment / keepalive
		case strings.HasPrefix(line, "event:"):
			eventName = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimSpace(strings.TrimPrefix(line, "data:"))...)
			// id: and retry: fields need no handling here — the sequence
			// number rides in the JSON payload.
		}
	}
	if err := dispatch(); err != nil {
		return maxSeq, err
	}
	return maxSeq, sc.Err()
}

// Churn queues an incremental churn run against base run id: the server
// waits for the base to finish, then applies req.Churn.Events in order
// through the warm-start allocator. The server fills req.Kind and
// req.Churn.BaseRun from the URL; everything else (mode, seed, title,
// metrics) is the caller's.
func (c *Client) Churn(ctx context.Context, id string, req server.SubmitRequest) (server.SubmitResponse, error) {
	var resp server.SubmitResponse
	err := c.do(ctx, http.MethodPost, "/v1/runs/"+id+"/churn", req, &resp)
	return resp, err
}

// Cancel aborts a pending or running run.
func (c *Client) Cancel(ctx context.Context, id string) (server.RunStatus, error) {
	var st server.RunStatus
	err := c.do(ctx, http.MethodPost, "/v1/runs/"+id+"/cancel", nil, &st)
	return st, err
}

// ReportBytes fetches the run's report document verbatim — the exact
// bytes report.Save would have written in-process, suitable for hashing
// and diffing.
func (c *Client) ReportBytes(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/runs/"+id+"/report", nil)
	if err != nil {
		return nil, err
	}
	obs.InjectTraceContext(req, traceContext(ctx))
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() //vc2m:closeflush response body close errors are uninformative by contract
	data, err := readBody(resp)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp.StatusCode, data)
	}
	return data, nil
}

// maxPresize bounds the buffer readBody allocates from a declared
// Content-Length before any byte arrives, so a bogus header cannot make
// the client allocate what the server never sends.
const maxPresize = 64 << 20

// readBody reads a response body whole. A body that declares its length,
// up to maxPresize, is read into one buffer of exactly that length; a
// body that ends short of it is an error, never short data. Any other
// body is read with io.ReadAll, which grows only as bytes arrive.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > maxPresize {
		return io.ReadAll(resp.Body)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, data); err != nil {
		return nil, err
	}
	return data, nil
}

// Report fetches and parses the run's report document, validating its
// schema version.
func (c *Client) Report(ctx context.Context, id string) (*report.Document, error) {
	data, err := c.ReportBytes(ctx, id)
	if err != nil {
		return nil, err
	}
	var doc report.Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	if err := report.Validate(&doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// StreamProvenance follows the run's live decision log, invoking fn for
// every decision until the run finishes, fn returns an error, or ctx is
// canceled. The transport client must not impose an overall timeout
// shorter than the run (pass a dedicated http.Client to New for long
// streams).
func (c *Client) StreamProvenance(ctx context.Context, id string, fn func(provenance.Decision) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/runs/"+id+"/provenance", nil)
	if err != nil {
		return err
	}
	obs.InjectTraceContext(req, traceContext(ctx))
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close() //vc2m:closeflush response body close errors are uninformative by contract
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return apiError(resp.StatusCode, data)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var d provenance.Decision
		if err := json.Unmarshal(line, &d); err != nil {
			return fmt.Errorf("client: bad provenance line: %w", err)
		}
		if err := fn(d); err != nil {
			return err
		}
	}
	return sc.Err()
}
