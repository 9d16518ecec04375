package server

// White-box tests for the run-lifecycle event bus: non-blocking publish
// with bounded per-subscriber buffers, monotone drop accounting, replay,
// and the slow-consumer stress test — one subscriber that never drains
// must cost itself events, never a worker.

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vc2m/internal/obs"
)

func TestEventBusPublishNeverBlocks(t *testing.T) {
	bus := newEventBus(16, 2)
	stuck, backlog := bus.subscribe("", 0)
	defer bus.unsubscribe(stuck)
	if len(backlog) != 0 {
		t.Fatalf("fresh bus replayed %d events", len(backlog))
	}

	// 50 publishes into a buffer of 2, never drained: publish must return
	// every time, the first 2 events must be delivered, the rest dropped.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			bus.publish(RunEvent{Type: EventStage, Run: "r0001"})
		}
	}()
	select { //vc2m:ctxfree the timeout case bounds the wait
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publish blocked on a full subscriber")
	}
	published, dropped, subs := bus.stats()
	if published != 50 || subs != 1 {
		t.Fatalf("stats: published %d subs %d, want 50 and 1", published, subs)
	}
	if want := uint64(48); dropped != want || stuck.dropped.Load() != want {
		t.Fatalf("dropped %d (sub %d), want %d", dropped, stuck.dropped.Load(), want)
	}
	if got := len(stuck.ch); got != 2 {
		t.Fatalf("subscriber buffer holds %d, want 2", got)
	}
}

func TestEventBusReplayAndFilter(t *testing.T) {
	bus := newEventBus(4, 8)
	for i := 0; i < 6; i++ {
		run := "r0001"
		if i%2 == 1 {
			run = "r0002"
		}
		bus.publish(RunEvent{Type: EventStage, Run: run})
	}
	// Ring of 4 retains seqs 3..6; afterSeq=3 and filter r0002 leaves the
	// r0002 events among 4..6.
	sub, backlog := bus.subscribe("r0002", 3)
	defer bus.unsubscribe(sub)
	var seqs []uint64
	for _, ev := range backlog {
		if ev.Run != "r0002" {
			t.Fatalf("filter leaked %+v", ev)
		}
		seqs = append(seqs, ev.Seq)
	}
	if len(seqs) != 2 || seqs[0] != 4 || seqs[1] != 6 {
		t.Fatalf("backlog seqs %v, want [4 6]", seqs)
	}
	// Live delivery respects the filter too.
	bus.publish(RunEvent{Type: EventFinished, Run: "r0001"})
	bus.publish(RunEvent{Type: EventFinished, Run: "r0002"})
	if got := len(sub.ch); got != 1 {
		t.Fatalf("filtered subscriber holds %d events, want 1", got)
	}
}

func TestSubmitCtxAdoptsTraceAndRequestID(t *testing.T) {
	s := New(Config{Workers: 1})
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	tc := obs.NewTraceContext()
	ctx := obs.ContextWithRequestID(
		obs.ContextWithTraceContext(context.Background(), tc), "req-000042")
	run, err := s.SubmitCtx(ctx, genReq(5))
	if err != nil {
		t.Fatal(err)
	}
	if run.TraceContext() != tc || run.reqID != "req-000042" {
		t.Fatalf("run adopted %+v / %q, want the submitted context", run.TraceContext(), run.reqID)
	}
	if st := run.Status(); st.TraceID != tc.TraceID {
		t.Fatalf("status trace %q, want %q", st.TraceID, tc.TraceID)
	}
	// Plain Submit mints instead.
	minted, err := s.Submit(genReq(6))
	if err != nil {
		t.Fatal(err)
	}
	if !minted.TraceContext().Valid() || minted.TraceContext() == tc {
		t.Fatalf("plain Submit trace %+v, want a fresh mint", minted.TraceContext())
	}
}

// TestEventStreamSlowConsumerNoStall is the acceptance stress test: many
// concurrent SSE subscribers, one of which deliberately never reads, while
// the worker pool executes a batch of runs. The pool must finish every run
// within the deadline (publishing never blocks on the slow consumer) and
// the drop counters must be positive and monotone. Run with -race.
func TestEventStreamSlowConsumerNoStall(t *testing.T) {
	s := New(Config{Workers: 4, EventBuffer: 8})
	s.Start()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	// A bus-level subscriber that never drains its 8-slot buffer: the
	// deterministic guarantee that drops happen no matter how fast the
	// HTTP-level consumers or their kernel socket buffers are.
	stuck, _ := s.events.subscribe("", 0)
	defer s.events.unsubscribe(stuck)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// 8 HTTP SSE subscribers. Subscriber 0 sends the request and then
	// never reads its response body; the rest tail the stream for real.
	const subscribers = 8
	var wg sync.WaitGroup
	seen := make([]atomic.Int64, subscribers)
	for i := 0; i < subscribers; i++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, hs.URL+"/v1/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hs.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			defer resp.Body.Close() //vc2m:closeflush response body close errors are uninformative by contract
			continue                // the deliberately slow consumer: connected, never reads
		}
		wg.Add(1)
		go func(i int, resp *http.Response) {
			defer wg.Done()
			defer resp.Body.Close() //vc2m:closeflush response body close errors are uninformative by contract
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				if strings.HasPrefix(sc.Text(), "data:") {
					seen[i].Add(1)
				}
			}
		}(i, resp)
	}

	const runs = 10
	var batch []*Run
	for i := 0; i < runs; i++ {
		run, err := s.Submit(genReq(int64(100 + i)))
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, run)
	}
	deadline := time.After(90 * time.Second)
	for _, run := range batch {
		select { //vc2m:ctxfree the deadline case bounds the wait
		case <-run.Done():
		case <-deadline:
			t.Fatalf("worker pool stalled: run %s never finished with a slow SSE consumer attached", run.ID())
		}
	}

	_, dropped1, _ := s.events.stats()
	if dropped1 == 0 || stuck.dropped.Load() == 0 {
		t.Fatalf("expected drops on the never-draining subscriber (bus %d, sub %d)",
			dropped1, stuck.dropped.Load())
	}
	// Monotone: more events can only grow the counter.
	extra, err := s.Submit(genReq(999))
	if err != nil {
		t.Fatal(err)
	}
	<-extra.Done()
	_, dropped2, _ := s.events.stats()
	if dropped2 < dropped1 {
		t.Fatalf("drop counter went backwards: %d -> %d", dropped1, dropped2)
	}
	if dropped2 == dropped1 {
		t.Fatalf("drop counter did not grow past %d while the stuck subscriber stayed full", dropped1)
	}

	// Let every tailing reader observe at least one frame before tearing
	// the connections down — canceling aborts buffered reads immediately.
	deadline2 := time.Now().Add(30 * time.Second) //vc2m:wallclock test pacing only
	for {
		lagging := 0
		for i := 1; i < subscribers; i++ {
			if seen[i].Load() == 0 {
				lagging++
			}
		}
		if lagging == 0 || time.Now().After(deadline2) { //vc2m:wallclock test pacing only
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel() // release the tailing readers
	wg.Wait()
	for i := 1; i < subscribers; i++ {
		if seen[i].Load() == 0 {
			t.Errorf("subscriber %d saw no events", i)
		}
	}
}

// TestEventBusRingRetainsLastHistory publishes three times the history
// length, plus a few events so the oldest entry is not at the start of
// the buffer, and checks that the ring replays exactly the last history
// events, oldest first, with and without a run filter and for resume
// points inside, before and past the ring.
func TestEventBusRingRetainsLastHistory(t *testing.T) {
	const history = 8
	const last = 3*history + 3
	bus := newEventBus(history, 4)
	for i := 0; i < last; i++ {
		run := "r0001"
		if i%3 == 0 {
			run = "r0002"
		}
		bus.publish(RunEvent{Type: EventStage, Run: run})
	}
	seqs := func(run string, after uint64) []uint64 {
		t.Helper()
		sub, backlog := bus.subscribe(run, after)
		bus.unsubscribe(sub)
		var out []uint64
		for _, ev := range backlog {
			if run != "" && ev.Run != run {
				t.Fatalf("filter %q leaked %+v", run, ev)
			}
			out = append(out, ev.Seq)
		}
		return out
	}
	span := func(lo, hi uint64, keep func(uint64) bool) []uint64 {
		var out []uint64
		for s := lo; s <= hi; s++ {
			if keep(s) {
				out = append(out, s)
			}
		}
		return out
	}
	all := func(uint64) bool { return true }
	// Seq s was published with i = s-1, so run r0002 holds (s-1)%3 == 0.
	r2 := func(s uint64) bool { return (s-1)%3 == 0 }
	for _, tc := range []struct {
		name  string
		run   string
		after uint64
		want  []uint64
	}{
		{"whole ring", "", 0, span(last-history+1, last, all)},
		{"after before ring", "", 5, span(last-history+1, last, all)},
		{"after oldest-1", "", last - history, span(last-history+1, last, all)},
		{"after inside ring", "", last - 3, span(last-2, last, all)},
		{"after newest", "", last, nil},
		{"after past newest", "", last + 10, nil},
		{"filter whole ring", "r0002", 0, span(last-history+1, last, r2)},
		{"filter inside ring", "r0002", last - 4, span(last-3, last, r2)},
		{"filter before ring", "r0002", 3, span(last-history+1, last, r2)},
	} {
		if got := seqs(tc.run, tc.after); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: replay seqs %v, want %v", tc.name, got, tc.want)
		}
	}
	// Publishing into a full ring allocates nothing.
	if n := testing.AllocsPerRun(100, func() { bus.publish(RunEvent{Type: EventStage, Run: "r0003"}) }); n > 0 {
		t.Errorf("publish into a full ring allocates %v per call, want 0", n)
	}
}

// TestPubSubLazyWakeup: a notify nobody waits for allocates nothing, and a
// streamer that called wait is still woken by the next notify.
func TestPubSubLazyWakeup(t *testing.T) {
	p := &pubSub{}
	if n := testing.AllocsPerRun(100, p.notify); n > 0 {
		t.Fatalf("notify with no waiter allocates %v per call, want 0", n)
	}
	wake := p.wait()
	if again := p.wait(); again != wake {
		t.Fatal("two waits before a notify got different channels")
	}
	select {
	case <-wake:
		t.Fatal("waiter woken before any notify")
	default:
	}
	woken := make(chan struct{})
	go func() {
		<-wake
		close(woken)
	}()
	p.notify()
	select { //vc2m:ctxfree the timeout case bounds the wait
	case <-woken:
	case <-time.After(5 * time.Second):
		t.Fatal("waiting streamer not woken by notify")
	}
	if next := p.wait(); next == wake {
		t.Fatal("wait after a notify returned the closed channel")
	}
}
