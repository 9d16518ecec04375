// Package provenance records *why* the allocator did what it did: every
// placement attempt, partition grant, interface derivation and rejection is
// captured as a typed Decision, turning "not schedulable" into "rejected
// because the cache partition pool was exhausted while core 2 still needed
// partitions". The decision stream is what cmd/vc2m-report renders,
// explains and diffs; interference-analysis frameworks (SP-IMPact, the
// multi-objective MBR work) rely on exactly this per-decision attribution
// to compare partitioning heuristics.
//
// The design mirrors packages metrics and trace: a nil *Recorder is the
// disabled state and costs one pointer comparison at every call site
// (emission sites guard with `if prov != nil` and never assemble a
// Decision when recording is off), and the stream is bit-identical across
// runs with the same seed because decisions are recorded from the
// allocator's deterministic control flow — sequence numbers are stamped
// under a mutex, but parallel harnesses record only from their serial
// reduction loops.
package provenance

import "sync"

// Resource identifies one of the three allocated resource dimensions. A
// rejection's Violated list names every resource whose exhaustion (or
// uselessness) contributed to the failure — the "binding" constraints.
type Resource string

// The resource dimensions of the holistic allocation.
const (
	// CPU means no partition grant could reduce utilization below 1:
	// the workload is compute-bound at that packing.
	CPU Resource = "cpu"
	// Cache means additional cache partitions would have helped but the
	// pool was exhausted (or the per-core cap was reached).
	Cache Resource = "cache"
	// BW means additional memory-bandwidth partitions would have helped
	// but the pool was exhausted (or the per-core cap was reached).
	BW Resource = "bw"
)

// ValidResource reports whether r is one of the defined dimensions.
func ValidResource(r Resource) bool {
	return r == CPU || r == Cache || r == BW
}

// Stages of the allocation pipeline, recorded on every decision so reports
// can group the stream into the paper's phases.
const (
	// StageVMLevel is the tasks-to-VCPUs mapping (Section 4.2).
	StageVMLevel = "vmlevel"
	// StageCSA is the per-VCPU interface derivation (budget tables).
	StageCSA = "csa"
	// StageHyper is the hypervisor-level search (Section 4.3), including
	// its Phase 1 packings; StagePhase2/StagePhase3 are its inner phases.
	StageHyper  = "hyper"
	StagePhase2 = "hyper.phase2"
	StagePhase3 = "hyper.phase3"
	// StageAdmit is the online admission controller.
	StageAdmit = "admit"
	// StageIncremental is the warm-start re-allocation path: departures,
	// arrivals and warm placements of a churn delta against a previous
	// layout.
	StageIncremental = "incremental"
	// StageRepack is the full hypervisor-level repack the warm-start path
	// falls back to when slack capacity cannot host an arrival; its
	// migrate decisions name every VCPU that changed cores.
	StageRepack = "incremental.repack"
	// StageBaseline covers the two baseline solutions' packing decisions.
	StageBaseline = "baseline"
	// StageBinpack is the generic bin-packing helper.
	StageBinpack = "binpack"
	// StageSweep is one taskset×solution case of a schedulability sweep.
	StageSweep = "sweep"
)

// Decision kinds.
const (
	// KindMap: a task was mapped onto a VCPU.
	KindMap = "map"
	// KindInterface: a VCPU's parameter interface was derived (period,
	// budget table) by one of the analyses.
	KindInterface = "interface"
	// KindAttempt: one hypervisor-level packing attempt (a cluster
	// permutation at a core count) succeeded or failed.
	KindAttempt = "attempt"
	// KindPlace: a VCPU was placed on (or rejected from) a core.
	KindPlace = "place"
	// KindGrant: a cache or BW partition was granted to a core.
	KindGrant = "grant"
	// KindMigrate: Phase 3 migrated a VCPU between cores.
	KindMigrate = "migrate"
	// KindAccept / KindReject: the final verdict of an allocation.
	KindAccept = "accept"
	KindReject = "reject"
	// KindAdmit: a churn arrival was admitted into the running layout.
	KindAdmit = "admit"
	// KindEvict: a churn departure released its VCPUs (and, when a core
	// emptied, its partitions) back to the spare pool.
	KindEvict = "evict"
	// KindTaskset: one taskset×solution case of a sweep.
	KindTaskset = "taskset"
)

// Decision is one record of the provenance stream. The struct is flat and
// self-describing so a JSON line needs no schema lookup; unused fields are
// omitted from the encoding.
type Decision struct {
	// Seq is the decision's position in the stream, stamped by the
	// Recorder starting at 0.
	Seq int `json:"seq"`
	// Stage is one of the Stage* constants.
	Stage string `json:"stage"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// Subject is the entity the decision is about (task, VCPU, VM, core or
	// sweep-case ID).
	Subject string `json:"subject,omitempty"`
	// Target is the entity the subject was mapped to, when any ("core 2",
	// a VCPU ID, a solution name).
	Target string `json:"target,omitempty"`
	// Cache and BW are the partition counts in effect for the decision.
	Cache int `json:"cache,omitempty"`
	BW    int `json:"bw,omitempty"`
	// Value is the decision's scalar evidence: a utilization, a grant
	// gain, a budget — documented by the Reason.
	Value float64 `json:"value,omitempty"`
	// Accepted reports whether the decision went the subject's way.
	Accepted bool `json:"accepted"`
	// Reason explains the decision in one line.
	Reason string `json:"reason,omitempty"`
	// Violated names every resource constraint that contributed to a
	// rejection — all of them, not just the first one checked.
	Violated []Resource `json:"violated,omitempty"`
}

// Sink receives the decision stream as it is recorded. A nil Sink is the
// disabled state: implementations must be safe no-ops on nil receivers,
// like every instrumentation hook in this repository.
type Sink interface {
	Record(Decision)
}

// Recorder accumulates the decision stream. A nil *Recorder is a valid
// no-op: every method checks the receiver, so instrumented code pays one
// pointer comparison when provenance is off. A Recorder may be shared by
// goroutines; all methods are mutex-protected, but deterministic streams
// require recording from deterministic (serial) control flow.
//
// The stream is append-only, repeats included: a recorded decision is
// never written again. Record and RecordRepeat only append past the
// stream's length, and Reset drops the backing array instead of reusing
// it. A slice header read under the mutex therefore stays valid without
// it, which is what lets Each walk the stream unlocked and View and Trim
// share the stream with the reports built from it. RecordRepeat appends
// copies of an earlier range like any other decisions, so sinks and
// readers of the stream see them as such; the recorder also remembers the
// range as a Repeat, which encoders may use to copy the source's bytes.
type Recorder struct {
	mu sync.Mutex
	//vc2m:guardedby mu
	decisions []Decision
	//vc2m:guardedby mu
	repeats []Repeat
	//vc2m:guardedby mu
	sink Sink
}

// Repeat names a range of the stream that copies an earlier range: the N
// decisions from position At on equal the N from position From on in
// every field but Seq. From+N <= At.
type Repeat struct {
	At, From, N int
}

// New returns an empty, enabled recorder.
func New() *Recorder { return &Recorder{} }

// NewStreaming returns a recorder that forwards every decision to sink as
// it is recorded (in addition to retaining it).
func NewStreaming(sink Sink) *Recorder { return &Recorder{sink: sink} }

// Enabled reports whether the recorder actually records (i.e. is non-nil).
// Hot call sites use this to skip assembling a Decision entirely.
func (r *Recorder) Enabled() bool { return r != nil }

// Record appends the decision to the stream, stamping its sequence number.
func (r *Recorder) Record(d Decision) {
	if r == nil {
		return
	}
	r.mu.Lock()
	d.Seq = len(r.decisions)
	r.decisions = append(r.decisions, d)
	sink := r.sink
	r.mu.Unlock()
	if sink != nil {
		sink.Record(d)
	}
}

// RecordRepeat appends a copy of the decisions at positions [from, to) of
// the stream, each stamped with its new sequence number, under one lock,
// and remembers the copy as a Repeat. A search that reaches a state it
// has already explored re-records that state's decisions with it instead
// of deriving them again. An empty or out-of-range [from, to) records
// nothing.
func (r *Recorder) RecordRepeat(from, to int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	at := len(r.decisions)
	if from < 0 || from >= to || to > at {
		r.mu.Unlock()
		return
	}
	r.decisions = append(r.decisions, r.decisions[from:to]...)
	for i := at; i < len(r.decisions); i++ {
		r.decisions[i].Seq = i
	}
	r.repeats = append(r.repeats, Repeat{At: at, From: from, N: to - from})
	copies := r.decisions[at:len(r.decisions):len(r.decisions)]
	sink := r.sink
	r.mu.Unlock()
	if sink != nil {
		for _, d := range copies {
			sink.Record(d)
		}
	}
}

// Repeats returns the ranges RecordRepeat has copied, in record order
// (nil when none). Like View, the result shares the recorder's array with
// its capacity capped at its length; callers must not modify it.
func (r *Recorder) Repeats() []Repeat {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.repeats)
	if n == 0 {
		return nil
	}
	return r.repeats[:n:n]
}

// Len returns the number of decisions recorded so far (0 on nil).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.decisions)
}

// Decisions returns a copy of the stream in record order (nil on a nil
// recorder).
func (r *Recorder) Decisions() []Decision {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Decision(nil), r.decisions...)
}

// Each calls fn with every decision recorded so far, in record order.
// The walk runs without the recorder's lock, so fn may itself record;
// decisions recorded after Each starts are not visited.
func (r *Recorder) Each(fn func(Decision)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	ds := r.decisions
	r.mu.Unlock()
	for i := range ds {
		fn(ds[i])
	}
}

// Trim drops the stream's growth slack and returns the stream, nil when
// it is empty. The returned slice has no spare capacity and is shared
// with the recorder rather than copied, so callers must not modify it; a
// later Record reallocates instead of writing behind it. Trimming a
// trimmed stream copies nothing.
func (r *Recorder) Trim() []Decision {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.decisions) == 0 {
		return nil
	}
	if cap(r.decisions) > len(r.decisions) {
		r.decisions = append(make([]Decision, 0, len(r.decisions)), r.decisions...)
	}
	return r.decisions
}

// View returns the stream without copying it, nil when it is empty. The
// view shares the recorder's array but its capacity is capped at its
// length, so appending to it reallocates, and a later Record writes past
// its end, where the view cannot see. Callers must not modify it.
func (r *Recorder) View() []Decision {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.decisions) == 0 {
		return nil
	}
	n := len(r.decisions)
	return r.decisions[:n:n]
}

// DecisionsFrom returns a copy of the stream from sequence n on (nil when
// nothing new). Incremental readers — the allocation server's live
// provenance stream — use it to drain only what they have not yet seen
// instead of re-copying the whole stream on every wakeup.
func (r *Recorder) DecisionsFrom(n int) []Decision {
	if r == nil {
		return nil
	}
	if n < 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n >= len(r.decisions) {
		return nil
	}
	return append([]Decision(nil), r.decisions[n:]...)
}

// Reset discards everything recorded so far; sequence numbers restart at
// 0. The old stream's backing array is dropped, not reused: View, Trim,
// Repeats and Each may have handed it out.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.decisions, r.repeats = nil, nil
	r.mu.Unlock()
}
