package server

import (
	"context"
	"fmt"
	"sync"

	"vc2m/internal/model"
	"vc2m/internal/obs"
	"vc2m/internal/provenance"
	"vc2m/internal/report"
)

// State is a run's lifecycle position.
type State string

const (
	// StatePending: accepted and queued, no worker has picked it up.
	StatePending State = "pending"
	// StateRunning: a worker is executing the allocation.
	StateRunning State = "running"
	// StateDone: the report document is available. Rejected allocations
	// are done, not failed — a rejection is a result with a decision
	// trail, exactly like the batch CLIs treat it.
	StateDone State = "done"
	// StateFailed: the run could not produce a report (bad generation
	// spec, simulator error).
	StateFailed State = "failed"
	// StateCanceled: the run's context was canceled (explicit cancel,
	// run timeout, or hard shutdown) before it completed.
	StateCanceled State = "canceled"
)

// Run is one registry entry: the submission, its lifecycle state, and —
// once done — the marshaled report document. The provenance recorder is
// live from the moment the run is created, so the streaming endpoint can
// attach before execution starts and observe every decision.
type Run struct {
	id   string
	kind string
	req  SubmitRequest

	// traceCtx is the run's W3C trace context: the submitting client's
	// (propagated via traceparent) or one minted at registration. reqID is
	// the submitting HTTP request's ID ("" for direct Submit calls). Both
	// are immutable once the run is visible.
	traceCtx obs.TraceContext
	reqID    string

	prov *provenance.Recorder
	pub  *pubSub

	// execCtx is the context workers execute the run under; cancel
	// aborts it (explicit cancel endpoint or hard shutdown). Both are
	// armed by Registry.Add, so they are never nil on a visible run.
	//vc2m:ctxfield run execution deliberately outlives the submitting HTTP request
	execCtx context.Context
	cancel  context.CancelFunc
	done    chan struct{}

	mu sync.Mutex
	//vc2m:guardedby mu
	state State
	//vc2m:guardedby mu
	errMsg string
	// docJSON is the marshaled report of a done run. The document itself
	// is not retained: Status needs only its title and, for a KindRun
	// document, whether it carries a rejection.
	//vc2m:guardedby mu
	docJSON []byte
	//vc2m:guardedby mu
	docTitle string
	//vc2m:guardedby mu
	docKind string
	//vc2m:guardedby mu
	rejected bool
	// decisions is the length of a done run's decision stream. Its report
	// holds the stream, so finish drops the recorder's copy and keeps the
	// count; runs without a report keep their recorder.
	//vc2m:guardedby mu
	decisions int
	// alloc is the accepted final allocation of a done run (KindRun and
	// KindChurn); nil on sweeps, rejections and failures. Churn runs read
	// their base run's allocation through it.
	//vc2m:guardedby mu
	alloc *model.Allocation
}

// ID returns the registry key.
func (r *Run) ID() string { return r.id }

// TraceContext returns the run's W3C trace context — always valid on a
// registered run (minted at Add when the submitter carried none).
func (r *Run) TraceContext() obs.TraceContext { return r.traceCtx }

// Done returns a channel closed when the run reaches a terminal state.
func (r *Run) Done() <-chan struct{} { return r.done }

// Cancel aborts the run: pending runs are discarded when a worker picks
// them up; running allocations observe the canceled context at their next
// poll point.
func (r *Run) Cancel() { r.cancel() }

// Status snapshots the run for the wire.
func (r *Run) Status() RunStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := RunStatus{
		ID:        r.id,
		Kind:      r.kind,
		State:     r.state,
		Title:     r.req.Title,
		Error:     r.errMsg,
		Decisions: r.prov.Len(),
		TraceID:   r.traceCtx.TraceID,
	}
	if r.docJSON != nil {
		st.Title, st.Decisions = r.docTitle, r.decisions
		if r.docKind == report.KindRun {
			sched := !r.rejected
			st.Schedulable = &sched
		}
	}
	return st
}

// Allocation returns the run's accepted final allocation, or nil while
// the run is unfinished or when it produced none (sweep, rejection,
// failure). Callers must treat the value as immutable — the incremental
// allocator copies before it mutates, so sharing is safe.
func (r *Run) Allocation() *model.Allocation {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.alloc
}

// setAllocation stores the accepted final allocation; call it before
// finish so Done() observers see it.
func (r *Run) setAllocation(a *model.Allocation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.alloc = a
}

// ReportJSON returns the marshaled report document, or false while the
// run has not produced one.
func (r *Run) ReportJSON() ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.docJSON, r.docJSON != nil
}

// decisionsFrom returns the decisions recorded from sequence n on, or,
// once the run is done, its report bytes, which then hold the only copy
// of its stream. finish drops the recorder's copy under the run's mutex,
// so a reader that holds it sees the whole stream in exactly one place.
func (r *Run) decisionsFrom(n int) ([]provenance.Decision, []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.docJSON != nil {
		return nil, r.docJSON
	}
	return r.prov.DecisionsFrom(n), nil
}

// setRunning transitions pending → running; it reports false when the
// run was already terminal (canceled before pickup).
func (r *Run) setRunning() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != StatePending {
		return false
	}
	r.state = StateRunning
	return true
}

// finish records the terminal state and wakes every waiter, including
// provenance streamers blocked on the next decision. doc and docJSON are
// both set on a done run and both nil otherwise; of doc, only the fields
// Status reports are kept. A done run's report carries its whole decision
// stream, so the recorder's copy is dropped and only its length kept.
func (r *Run) finish(state State, doc *report.Document, docJSON []byte, errMsg string) {
	r.mu.Lock()
	r.state = state
	r.docJSON = docJSON
	if doc != nil {
		r.docTitle, r.docKind, r.rejected = doc.Title, doc.Kind, doc.Rejection != nil
		r.decisions = r.prov.Len()
		r.prov.Reset()
	}
	r.errMsg = errMsg
	r.mu.Unlock()
	close(r.done)
	r.pub.notify()
}

// Registry tracks every accepted run, keyed by a counter-based ID —
// deterministic, like every identifier this repository mints, so two
// identically-scripted sessions produce identical registries.
type Registry struct {
	mu sync.Mutex
	//vc2m:guardedby mu
	next int
	//vc2m:guardedby mu
	runs map[string]*Run
	//vc2m:guardedby mu
	order []string

	// events, when non-nil, receives stage-entered lifecycle events derived
	// from the provenance sink chain. Set once via SetEventBus before any
	// Add.
	//vc2m:guardedby mu
	events *eventBus
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{runs: make(map[string]*Run)}
}

// SetEventBus installs the lifecycle event bus the stage sink publishes
// to. Call it once, before any Add — later runs would otherwise race the
// sink chain construction.
func (g *Registry) SetEventBus(b *eventBus) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.events = b
}

// Add registers a new pending run for the request and returns it. The
// execution context and its cancel func are part of the run from the
// moment it becomes visible, so a concurrent cancel endpoint can never
// observe a half-armed run. tc is the submitter's W3C trace context — a
// fresh trace is minted when it is invalid, so every run has a trace ID
// from the moment it exists; reqID is the submitting HTTP request's ID
// ("" for direct Submit calls).
func (g *Registry) Add(req SubmitRequest, execCtx context.Context, cancel context.CancelFunc, tc obs.TraceContext, reqID string) *Run {
	pub := &pubSub{}
	kind := req.Kind
	if kind == "" {
		kind = KindRun
	}
	if !tc.Valid() {
		tc = obs.NewTraceContext()
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.next++
	id := fmt.Sprintf("r%04d", g.next)
	var sink provenance.Sink = pub
	if g.events != nil {
		sink = &stageSink{bus: g.events, run: id, kind: kind, traceID: tc.TraceID, next: sink}
	}
	r := &Run{
		id:       id,
		kind:     kind,
		req:      req,
		traceCtx: tc,
		reqID:    reqID,
		prov:     provenance.NewStreaming(sink),
		pub:      pub,
		execCtx:  execCtx,
		cancel:   cancel,
		done:     make(chan struct{}),
		state:    StatePending,
	}
	g.runs[r.id] = r
	g.order = append(g.order, r.id)
	return r
}

// Remove deletes a run that never made it into the queue (enqueue
// failure), so the registry only lists runs that will execute.
func (g *Registry) Remove(id string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.runs, id)
	for i, v := range g.order {
		if v == id {
			g.order = append(g.order[:i], g.order[i+1:]...)
			break
		}
	}
}

// Get looks a run up by ID.
func (g *Registry) Get(id string) (*Run, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r, ok := g.runs[id]
	return r, ok
}

// Runs returns every registered run in submission order.
func (g *Registry) Runs() []*Run {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*Run, 0, len(g.order))
	for _, id := range g.order {
		out = append(out, g.runs[id])
	}
	return out
}

// Statuses returns every run's wire status in submission order.
func (g *Registry) Statuses() []RunStatus {
	runs := g.Runs()
	out := make([]RunStatus, len(runs))
	for i, r := range runs {
		out[i] = r.Status()
	}
	return out
}

// Count tallies runs by state.
func (g *Registry) Count() (total int, byState map[State]int) {
	runs := g.Runs()
	byState = make(map[State]int)
	for _, r := range runs {
		byState[r.Status().State]++
	}
	return len(runs), byState
}

// pubSub wakes provenance streamers when a new decision lands. It
// implements provenance.Sink: the recorder retains the decisions, the
// sink only broadcasts "there is more to read". The wakeup channel exists
// only while someone waits: wait creates it, notify closes and clears it,
// so a decision nobody is streaming costs a lock and a nil check. A nil
// *pubSub drops notifications, like every sink in this repository.
type pubSub struct {
	mu sync.Mutex
	// ch is closed at the next notify; nil when no streamer has called
	// wait since the last one.
	//vc2m:guardedby mu
	ch chan struct{}
}

// Record implements provenance.Sink.
func (p *pubSub) Record(provenance.Decision) {
	if p == nil {
		return
	}
	p.notify()
}

// notify wakes every current waiter.
func (p *pubSub) notify() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.ch != nil {
		close(p.ch)
		p.ch = nil
	}
	p.mu.Unlock()
}

// wait returns a channel closed at the next notify. Grab the channel
// BEFORE reading the recorder, so a decision landing between the read and
// the wait still wakes the waiter.
func (p *pubSub) wait() <-chan struct{} {
	if p == nil {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ch == nil {
		p.ch = make(chan struct{})
	}
	return p.ch
}
