package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Run-lifecycle event types published on the server's event bus and served
// over the SSE endpoint GET /v1/events. The event stream is pure telemetry:
// like spans, logs and metrics it lives strictly OUTSIDE every
// vc2m.report/v1 document.
const (
	// EventQueued: the submission was accepted into the bounded queue.
	EventQueued = "queued"
	// EventStarted: a worker picked the run up and began executing.
	EventStarted = "started"
	// EventStage: the allocator pipeline entered a new provenance stage.
	EventStage = "stage"
	// EventFinished: the run reached a terminal state (done, failed or
	// canceled). Done-but-rejected allocations emit EventRejected instead.
	EventFinished = "finished"
	// EventRejected: the run finished with a rejected allocation — done,
	// with a decision trail, but not schedulable.
	EventRejected = "rejected"
	// EventChurn: one churn delta was applied by the incremental allocator;
	// the event carries the admitted/rejected/departed/migrated counts.
	EventChurn = "churn-applied"
)

// RunEvent is one run-lifecycle event, the wire form of the SSE `data:`
// payload. Seq is the bus-global sequence number, also the SSE event ID, so
// a reconnecting client resumes with Last-Event-ID.
type RunEvent struct {
	Seq   uint64 `json:"seq"`
	Type  string `json:"type"`
	Run   string `json:"run"`
	Kind  string `json:"kind,omitempty"`
	State State  `json:"state,omitempty"`
	// Stage is the provenance stage just entered (EventStage only).
	Stage string `json:"stage,omitempty"`
	// TraceID is the run's W3C trace ID: client-supplied via traceparent,
	// or minted at submission.
	TraceID string `json:"trace_id,omitempty"`
	// Error is the failure reason on failed/canceled terminal events.
	Error string `json:"error,omitempty"`
	// Decisions counts provenance decisions recorded when the event fired.
	Decisions int `json:"decisions,omitempty"`
	// Churn counts (EventChurn only). ChurnEvent is the 1-based index of
	// the delta within the churn spec.
	ChurnEvent int `json:"churn_event,omitempty"`
	Admitted   int `json:"admitted,omitempty"`
	Rejected   int `json:"rejected,omitempty"`
	Departed   int `json:"departed,omitempty"`
	Migrated   int `json:"migrated,omitempty"`
}

// Terminal reports whether the event is its run's last.
func (e RunEvent) Terminal() bool {
	return e.Type == EventFinished || e.Type == EventRejected
}

// eventSub is one SSE subscriber: a bounded channel the bus delivers into
// without ever blocking. When the channel is full the bus drops the event
// and counts it here — a slow consumer costs itself events, never a worker.
type eventSub struct {
	run     string // run-ID filter; "" subscribes to every run
	ch      chan RunEvent
	dropped atomic.Uint64
}

// eventBus fans run-lifecycle events out to SSE subscribers. Publishing is
// strictly non-blocking: each subscriber has a bounded buffer, and a full
// buffer drops the event for that subscriber (counted per-subscriber and
// bus-wide) instead of stalling the publishing worker. A fixed circular
// buffer retains the last history events for Last-Event-ID replay on
// reconnect, so a publish costs O(1) at any history length. A nil
// *eventBus drops everything, like every sink in this repository.
type eventBus struct {
	history int
	subBuf  int
	// onDrop, when non-nil, observes every dropped delivery (it feeds
	// vc2m_events_dropped_total). Set once before the bus is shared.
	onDrop func(n int)

	mu sync.Mutex
	//vc2m:guardedby mu
	seq uint64
	// ring holds the retained events: it fills by append up to its
	// preallocated capacity (history), then each publish overwrites the
	// oldest entry at head. Seqs in the ring are consecutive, oldest at
	// head.
	//vc2m:guardedby mu
	ring []RunEvent
	//vc2m:guardedby mu
	head int
	//vc2m:guardedby mu
	subs map[*eventSub]struct{}
	//vc2m:guardedby mu
	published uint64
	//vc2m:guardedby mu
	droppedTotal uint64
}

func newEventBus(history, subBuf int) *eventBus {
	if subBuf <= 0 {
		subBuf = 64
	}
	return &eventBus{
		history: history, subBuf: subBuf,
		ring: make([]RunEvent, 0, history),
		subs: make(map[*eventSub]struct{}),
	}
}

// publish assigns the next sequence number, retains the event in the
// replay ring and delivers it to every matching subscriber without
// blocking.
func (b *eventBus) publish(ev RunEvent) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.seq++
	ev.Seq = b.seq
	b.published++
	if len(b.ring) < b.history {
		b.ring = append(b.ring, ev)
	} else {
		b.ring[b.head] = ev
		b.head = (b.head + 1) % b.history
	}
	dropped := 0
	for sub := range b.subs { //vc2m:ordered independent subscribers; each sees events in publish order
		if sub.run != "" && sub.run != ev.Run {
			continue
		}
		select {
		case sub.ch <- ev:
		default:
			sub.dropped.Add(1)
			dropped++
		}
	}
	b.droppedTotal += uint64(dropped)
	onDrop := b.onDrop
	b.mu.Unlock()
	if dropped > 0 && onDrop != nil {
		onDrop(dropped)
	}
}

// subscribe registers a subscriber (run="" for all runs) and returns it
// together with the ring's replay backlog: every retained event with
// Seq > afterSeq that matches the filter, oldest first.
func (b *eventBus) subscribe(run string, afterSeq uint64) (*eventSub, []RunEvent) {
	sub := &eventSub{run: run, ch: make(chan RunEvent, b.subBuf)}
	b.mu.Lock()
	defer b.mu.Unlock()
	// The ring's seqs run consecutively from oldest, so the first event
	// past afterSeq is found by arithmetic instead of a scan.
	n := len(b.ring)
	skip := 0
	if oldest := b.seq - uint64(n) + 1; afterSeq >= oldest {
		skip = int(min(afterSeq-oldest+1, uint64(n)))
	}
	var backlog []RunEvent
	for i := skip; i < n; i++ {
		ev := b.ring[(b.head+i)%n]
		if run != "" && ev.Run != run {
			continue
		}
		backlog = append(backlog, ev)
	}
	b.subs[sub] = struct{}{}
	return sub, backlog
}

func (b *eventBus) unsubscribe(sub *eventSub) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.subs, sub)
}

// stats snapshots the bus counters for /api/metrics and the gauges.
func (b *eventBus) stats() (published, dropped uint64, subscribers int) {
	if b == nil {
		return 0, 0, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.published, b.droppedTotal, len(b.subs)
}

// sseKeepalive is the comment-frame interval that keeps idle streams (and
// any intermediaries) from timing the connection out.
const sseKeepalive = 15 * time.Second

// handleEvents serves GET /v1/events: the bus-wide run-lifecycle stream as
// Server-Sent Events. ?run={id} filters to one run; Last-Event-ID (header
// or ?last_event_id=) resumes after a reconnect from the replay ring. The
// stream runs until the client leaves or the server's drain completes.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	sub, backlog := s.events.subscribe(r.URL.Query().Get("run"), parseLastEventID(r))
	defer s.events.unsubscribe(sub)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // intermediaries must not buffer the stream
	w.WriteHeader(http.StatusOK)
	flusher, canFlush := w.(http.Flusher)
	flush := func() {
		if canFlush {
			flusher.Flush()
		}
	}
	if _, err := io.WriteString(w, "retry: 1000\n\n"); err != nil {
		return
	}

	for _, ev := range backlog {
		if !writeSSE(w, ev) {
			return
		}
	}
	flush()

	var notifiedDrops uint64
	keepalive := time.NewTicker(sseKeepalive)
	defer keepalive.Stop()
	for {
		select {
		case ev := <-sub.ch:
			if !writeSSE(w, ev) {
				return
			}
			flush()
		case <-keepalive.C:
			// Keep the connection alive and surface our drop count, so a
			// slow consumer can see it is being shed.
			if d := sub.dropped.Load(); d > notifiedDrops {
				notifiedDrops = d
				if _, err := fmt.Fprintf(w, "event: dropped\ndata: {\"dropped\":%d}\n\n", d); err != nil {
					return
				}
			} else if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				return
			}
			flush()
		case <-r.Context().Done():
			return
		case <-s.stop:
			// Drain complete: every run is terminal and no further events
			// will be published. End the stream so the HTTP server's own
			// shutdown is never blocked by an idle subscriber.
			return
		}
	}
}

// parseLastEventID reads the SSE resume position: the Last-Event-ID header
// a reconnecting EventSource sends, or ?last_event_id= for plain HTTP
// clients. Unparsable values resume from the live stream.
func parseLastEventID(r *http.Request) uint64 {
	v := r.Header.Get("Last-Event-ID")
	if v == "" {
		v = r.URL.Query().Get("last_event_id")
	}
	if v == "" {
		return 0
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// writeSSE renders one event as an SSE frame: the sequence number as the
// event ID (resume cursor), the type as the event name, the JSON body as
// the data line.
func writeSSE(w io.Writer, ev RunEvent) bool {
	data, err := json.Marshal(ev)
	if err != nil {
		return false
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
	return err == nil
}
