package client

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// reportServer serves handler at the report path of run r0001.
func reportServer(t *testing.T, handler http.HandlerFunc) *Client {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/runs/r0001/report", handler)
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return New(hs.URL, nil)
}

// body returns n bytes of varied content.
func body(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + i%23)
	}
	return b
}

// allocatedPerCall returns the bytes the process allocates per call of fn,
// averaged over runs calls.
func allocatedPerCall(runs int, fn func()) uint64 {
	fn() // warm the connection and the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestReportBytesDeclaredLength: a body with a Content-Length is read into
// one buffer of exactly that length; io.ReadAll would allocate about
// twice the body while growing its buffer.
func TestReportBytesDeclaredLength(t *testing.T) {
	want := body(1<<20 + 7)
	c := reportServer(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(want)))
		_, _ = w.Write(want)
	})
	var got []byte
	var err error
	perCall := allocatedPerCall(8, func() {
		got, err = c.ReportBytes(context.Background(), "r0001")
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || cap(got) != len(got) {
		t.Fatalf("got %d bytes with capacity %d, want the %d bytes served at exact capacity", len(got), cap(got), len(want))
	}
	if limit := uint64(len(want) + len(want)/4); perCall > limit {
		t.Errorf("%d bytes allocated per fetch of a %d-byte body, want at most %d", perCall, len(want), limit)
	}
}

// TestReportBytesChunked: a body with no declared length is read whole.
func TestReportBytesChunked(t *testing.T) {
	want := body(300 << 10)
	c := reportServer(t, func(w http.ResponseWriter, _ *http.Request) {
		for rest := want; len(rest) > 0; {
			n := min(len(rest), 10_000)
			_, _ = w.Write(rest[:n])
			w.(http.Flusher).Flush()
			rest = rest[n:]
		}
	})
	got, err := c.ReportBytes(context.Background(), "r0001")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("chunked body: %d bytes, %v; want the %d bytes served", len(got), err, len(want))
	}
}

// TestReportBytesShortBody: a body that ends before its Content-Length is
// an error, never short data.
func TestReportBytesShortBody(t *testing.T) {
	c := reportServer(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Length", "1000")
		_, _ = w.Write(body(500))
	})
	got, err := c.ReportBytes(context.Background(), "r0001")
	if !errors.Is(err, io.ErrUnexpectedEOF) || got != nil {
		t.Fatalf("short body: %d bytes, %v; want no data and io.ErrUnexpectedEOF", len(got), err)
	}
}

// TestReportBytesLengthAboveCap: a declared length above maxPresize is not
// allocated up front. The server declares it and sends a few bytes, so the
// fetch fails having allocated next to nothing.
func TestReportBytesLengthAboveCap(t *testing.T) {
	c := reportServer(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(maxPresize+1))
		_, _ = w.Write(body(100))
	})
	var err error
	perCall := allocatedPerCall(4, func() {
		_, err = c.ReportBytes(context.Background(), "r0001")
	})
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated oversized body: %v, want io.ErrUnexpectedEOF", err)
	}
	if perCall > 1<<20 {
		t.Fatalf("%d bytes allocated per fetch of a body declaring %d", perCall, maxPresize+1)
	}
}

// TestReportBytesAPIError: a non-200 answer is an error carrying the
// server's message and status.
func TestReportBytesAPIError(t *testing.T) {
	c := reportServer(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		_, _ = io.WriteString(w, `{"error": "server: run r0001 is running, no report yet"}`)
	})
	got, err := c.ReportBytes(context.Background(), "r0001")
	if err == nil || got != nil ||
		!strings.Contains(err.Error(), "run r0001 is running, no report yet") || !strings.Contains(err.Error(), "HTTP 409") {
		t.Fatalf("409: %q, %v; want no data and the server's message", got, err)
	}
}
