// vc2m-top is a terminal live monitor for a running vc2m-server: htop for
// the allocation fleet. It tails the server's SSE run-lifecycle stream
// (GET /v1/events) for instant state changes and periodically scrapes the
// Prometheus text exposition (GET /metrics) and the JSON gauges
// (GET /api/metrics) for pool occupancy, per-stage latency and event-bus
// health — all through the same public surfaces any other client uses.
//
// Examples:
//
//	vc2m-top                            # watch http://127.0.0.1:8700
//	vc2m-top -url http://host:8700 -interval 1s
//	vc2m-top -once                      # print one snapshot and exit
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"vc2m/client"
	"vc2m/internal/obs"
	"vc2m/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the defer-safe driver: every return path unwinds cleanly, so the
// SSE tail goroutine and the HTTP client are always released.
func run(args []string) int {
	fs := flag.NewFlagSet("vc2m-top", flag.ContinueOnError)
	url := fs.String("url", "http://127.0.0.1:8700", "vc2m-server base URL")
	interval := fs.Duration("interval", 2*time.Second, "scrape/redraw interval")
	once := fs.Bool("once", false, "print one snapshot without ANSI control codes and exit")
	eventLines := fs.Int("events", 10, "recent lifecycle events shown in the live view")
	version := fs.Bool("version", false, "print the build identity and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Println("vc2m-top", obs.GetBuildInfo())
		return 0
	}

	// Streaming wants no overall timeout; the snapshot requests bound
	// themselves per call via context.
	hc := &http.Client{}
	c := client.New(*url, hc)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *once {
		snap, err := scrape(ctx, c, hc, *url)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vc2m-top:", err)
			return 1
		}
		render(os.Stdout, snap, nil, *url)
		return 0
	}

	// SSE tail: collect the most recent lifecycle events in a bounded ring,
	// reconnecting with Last-Event-ID until the context ends.
	tail := newEventTail(*eventLines)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tail.follow(ctx, c)
	}()
	defer wg.Wait()

	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	for {
		snap, err := scrape(ctx, c, hc, *url)
		fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		if err != nil {
			fmt.Printf("vc2m-top: %s unreachable: %v (retrying)\n", *url, err)
		} else {
			render(os.Stdout, snap, tail.recent(), *url)
		}
		select {
		case <-ctx.Done():
			fmt.Println("vc2m-top: bye")
			return 0
		case <-ticker.C:
		}
	}
}

// snapshot is one scrape of the server's observable state.
type snapshot struct {
	metrics server.ServiceMetrics
	runs    []server.RunStatus
	// stageLat maps pipeline stage -> (count, sum, exemplar trace) from
	// vc2m_stage_latency_seconds.
	stageLat map[string]stageStat
}

type stageStat struct {
	count, sum float64
	trace      string
}

// scrape gathers one snapshot: the JSON gauges, the run list, and the
// Prometheus exposition parsed through the same strict parser the smoke
// tests use.
func scrape(ctx context.Context, c *client.Client, hc *http.Client, base string) (*snapshot, error) {
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	m, err := c.Metrics(sctx)
	if err != nil {
		return nil, err
	}
	runs, err := c.Runs(sctx)
	if err != nil {
		return nil, err
	}
	snap := &snapshot{metrics: m, runs: runs, stageLat: map[string]stageStat{}}

	req, err := http.NewRequestWithContext(sctx, http.MethodGet, strings.TrimRight(base, "/")+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() //vc2m:closeflush response body close errors are uninformative by contract
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("parsing /metrics: %w", err)
	}
	for _, fam := range fams {
		if fam.Name != "vc2m_stage_latency_seconds" {
			continue
		}
		for _, s := range fam.Samples {
			stage := s.Labels["stage"]
			st := snap.stageLat[stage]
			switch {
			case strings.HasSuffix(s.Name, "_count"):
				st.count = s.Value
			case strings.HasSuffix(s.Name, "_sum"):
				st.sum = s.Value
			case s.Exemplar != nil:
				st.trace = s.Exemplar.Labels["trace_id"]
			}
			snap.stageLat[stage] = st
		}
	}
	return snap, nil
}

// render writes one snapshot (and, in live mode, the recent event tail)
// as a plain-text board.
func render(w io.Writer, snap *snapshot, events []server.RunEvent, base string) {
	m := snap.metrics
	fmt.Fprintf(w, "vc2m-top — %s\n", base)
	fmt.Fprintf(w, "pool    workers %d  in-queue %d/%d  submitted %d  draining %v\n",
		m.Workers, m.QueueLen, m.QueueCap, m.Submitted, m.Draining)
	fmt.Fprintf(w, "events  published %d  dropped %d  subscribers %d\n",
		m.EventsPublished, m.EventsDropped, m.EventSubscribers)

	states := make([]string, 0, len(m.ByState))
	for st := range m.ByState { //vc2m:ordered keys are sorted below
		states = append(states, string(st))
	}
	sort.Strings(states)
	parts := make([]string, 0, len(states))
	for _, st := range states {
		parts = append(parts, fmt.Sprintf("%s %d", st, m.ByState[server.State(st)]))
	}
	fmt.Fprintf(w, "runs    %s\n\n", strings.Join(parts, "  "))

	fmt.Fprintf(w, "%-14s %8s %12s %10s  %s\n", "STAGE", "COUNT", "TOTAL", "MEAN", "LAST TRACE")
	stages := make([]string, 0, len(snap.stageLat))
	for st := range snap.stageLat { //vc2m:ordered keys are sorted below
		stages = append(stages, st)
	}
	sort.Strings(stages)
	for _, stage := range stages {
		st := snap.stageLat[stage]
		if st.count == 0 { //vc2m:floateq zero is the never-observed sentinel; counts round-trip exactly
			continue
		}
		mean := st.sum / st.count
		fmt.Fprintf(w, "%-14s %8.0f %11.2fms %9.3fms  %s\n",
			stage, st.count, st.sum*1000, mean*1000, st.trace)
	}

	fmt.Fprintf(w, "\n%-8s %-6s %-9s %10s  %-18s %s\n", "RUN", "KIND", "STATE", "DECISIONS", "TRACE", "TITLE")
	// Newest first; the live board shows what is moving now.
	for i := len(snap.runs) - 1; i >= 0 && i >= len(snap.runs)-15; i-- {
		r := snap.runs[i]
		title := r.Title
		if len(title) > 40 {
			title = title[:37] + "..."
		}
		fmt.Fprintf(w, "%-8s %-6s %-9s %10d  %-18.16s %s\n",
			r.ID, r.Kind, r.State, r.Decisions, r.TraceID, title)
	}

	if events != nil {
		fmt.Fprintf(w, "\nrecent events (newest first):\n")
		for i := len(events) - 1; i >= 0; i-- {
			ev := events[i]
			extra := ""
			if ev.Stage != "" {
				extra = " @" + ev.Stage
			}
			if ev.Type == server.EventChurn {
				extra = fmt.Sprintf(" +%d/-%d (rej %d, mig %d)", ev.Admitted, ev.Departed, ev.Rejected, ev.Migrated)
			}
			if ev.Error != "" {
				extra += " — " + ev.Error
			}
			fmt.Fprintf(w, "  #%-6d %-14s %s%s\n", ev.Seq, ev.Type, ev.Run, extra)
		}
	}
}

// eventTail keeps the most recent lifecycle events from the SSE stream.
type eventTail struct {
	mu sync.Mutex
	//vc2m:guardedby mu
	ring []server.RunEvent
	max  int
}

func newEventTail(max int) *eventTail {
	if max <= 0 {
		max = 10
	}
	return &eventTail{max: max}
}

func (t *eventTail) add(ev server.RunEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ring = append(t.ring, ev)
	if len(t.ring) > t.max {
		n := copy(t.ring, t.ring[len(t.ring)-t.max:])
		t.ring = t.ring[:n]
	}
}

func (t *eventTail) recent() []server.RunEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]server.RunEvent, len(t.ring))
	copy(out, t.ring)
	return out
}

// follow tails GET /v1/events until ctx ends, reconnecting with
// Last-Event-ID after drops so no event is missed while the ring retains
// it.
func (t *eventTail) follow(ctx context.Context, c *client.Client) {
	var last uint64
	for ctx.Err() == nil {
		seq, _ := c.StreamEvents(ctx, last, func(ev server.RunEvent) error {
			t.add(ev)
			return nil
		})
		if seq > last {
			last = seq
		}
		if ctx.Err() != nil {
			return
		}
		// Server away or stream closed: pause briefly before redialing.
		timer := time.NewTimer(time.Second)
		select {
		case <-ctx.Done():
			timer.Stop()
			return
		case <-timer.C:
		}
	}
}
