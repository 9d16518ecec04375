// Package vc2m is a holistic CPU, shared-cache and memory-bandwidth
// allocation framework for real-time multicore virtualization — a faithful
// reimplementation of "Holistic Multi-Resource Allocation for Multicore
// Real-Time Virtualization" (Xu, Gifford, Phan; DAC 2019).
//
// Given a set of virtual machines hosting implicit-deadline periodic tasks
// whose worst-case execution times depend on the cache and memory-
// bandwidth partitions their core receives, vC2M computes:
//
//   - a tasks-to-VCPUs mapping and each VCPU's period and cache/BW-
//     dependent budget, using an analysis with zero abstraction overhead
//     (Theorem 1 "flattening" or Theorem 2 "well-regulated" execution);
//   - a VCPUs-to-cores mapping; and
//   - per-core cache and bandwidth partition counts,
//
// such that every deadline is guaranteed. Allocations can be executed on a
// discrete-event hypervisor simulator (an RTDS-style partitioned-EDF
// scheduler with MemGuard-style bandwidth regulation) to observe the
// guarantee holding.
//
// # Quick start
//
//	sys := &vc2m.System{
//	    Platform: vc2m.PlatformA,
//	    VMs: []*vc2m.VM{{
//	        ID: "vm0",
//	        Tasks: []*vc2m.Task{
//	            vc2m.NewTask("control", "vm0", 100, vc2m.ConstWCET(vc2m.PlatformA, 10)),
//	        },
//	    }},
//	}
//	a, err := vc2m.Allocate(sys, vc2m.Options{})
//
// See the examples/ directory for complete programs and DESIGN.md for the
// system inventory.
package vc2m

import (
	"context"
	"fmt"
	"io"

	"vc2m/internal/alloc"
	"vc2m/internal/csa"
	"vc2m/internal/hypersim"
	"vc2m/internal/metrics"
	"vc2m/internal/model"
	"vc2m/internal/obs"
	"vc2m/internal/parsec"
	"vc2m/internal/provenance"
	"vc2m/internal/rngutil"
	"vc2m/internal/timeunit"
	"vc2m/internal/trace"
	"vc2m/internal/workload"
)

// Core model types. All time quantities are in milliseconds.
type (
	// Platform describes the multicore hardware: M cores, C cache
	// partitions, B bandwidth partitions, and the per-core minimums.
	Platform = model.Platform
	// ResourceTable is a value table indexed by a (cache, bandwidth)
	// partition allocation; it stores task WCET functions e(c,b) and VCPU
	// budget functions Theta(c,b).
	ResourceTable = model.ResourceTable
	// Task is an implicit-deadline periodic task with an allocation-
	// dependent WCET.
	Task = model.Task
	// VM is a virtual machine hosting tasks.
	VM = model.VM
	// System is a set of VMs to be deployed on a platform.
	System = model.System
	// VCPU is a virtual processor: a periodic server with an allocation-
	// dependent budget.
	VCPU = model.VCPU
	// CoreAlloc is one core's VCPUs and partition counts.
	CoreAlloc = model.CoreAlloc
	// Allocation is the complete allocator output.
	Allocation = model.Allocation
	// Allocator is a complete allocation strategy; see Solutions.
	Allocator = alloc.Allocator
	// Overheads configures intra-core preemption-overhead inflation.
	Overheads = csa.Overheads
)

// The evaluation platforms of the paper (Section 5.1).
var (
	// PlatformA has 4 cores and 20 cache/BW partitions (Xeon 2618L v3).
	PlatformA = model.PlatformA
	// PlatformB has 6 cores and 20 cache/BW partitions (Xeon D-1528).
	PlatformB = model.PlatformB
	// PlatformC has 4 cores and 12 cache/BW partitions (Xeon D-1518).
	PlatformC = model.PlatformC
)

// ErrNotSchedulable is returned when no feasible allocation exists.
var ErrNotSchedulable = model.ErrNotSchedulable

// MetricsRecorder collects deterministic search-effort and event counters
// from the allocator and the simulator; wall time is recorded by spans
// (see NewSpanTrace), not here. The zero value of the pointer (nil) is a
// valid no-op recorder: every recording method on a nil *MetricsRecorder
// returns immediately, so instrumented code needs no guards and pays
// nothing when metrics are off.
type MetricsRecorder = metrics.Recorder

// MetricsSnapshot is an immutable copy of a recorder's counters,
// renderable as JSON (MetricsSnapshot.JSON), an aligned text table
// (MetricsSnapshot.Table) or CSV rows (MetricsSnapshot.CSVRows).
type MetricsSnapshot = metrics.Snapshot

// NewMetrics returns an enabled metrics recorder. Pass it via
// Options.Metrics or SimOptions.Metrics, then read it with
// MetricsRecorder.Snapshot.
func NewMetrics() *MetricsRecorder { return metrics.New() }

// ProvenanceRecorder collects the allocator's decision stream: every
// placement attempt, candidate interface, partition grant and rejection,
// with the reason and (for rejections) the binding resource(s). Like
// MetricsRecorder, a nil recorder is a valid no-op sink, so provenance is
// free when disabled. Join the stream into a run report with package
// internal/report or the vc2m-report CLI.
type ProvenanceRecorder = provenance.Recorder

// ProvenanceDecision is one recorded allocation decision.
type ProvenanceDecision = provenance.Decision

// NewProvenance returns an enabled provenance recorder. Pass it via
// Options.Provenance, then read it with ProvenanceRecorder.Decisions.
func NewProvenance() *ProvenanceRecorder { return provenance.New() }

// Span is one wall-clock measurement in the observability layer (package
// internal/obs): the allocator, the CSA derivation, the simulator and the
// sweep harness open child spans under the one passed in via Options.Span
// or SimOptions.Span. A nil *Span disables the subtree at the cost of one
// pointer comparison per site. Spans measure wall time and are therefore
// nondeterministic; they live strictly outside every report document, so
// identically-seeded runs stay byte-identical with spans enabled.
type Span = obs.Span

// SpanTrace collects a run's spans; see NewSpanTrace. Export the result
// with SpanTrace.WriteChrome (Chrome trace-event JSON for
// ui.perfetto.dev) or SpanTrace.WriteBreakdown (per-stage latency table).
type SpanTrace = obs.Trace

// NewSpanTrace returns an enabled span collector. Open a root with
// SpanTrace.StartSpan (conventionally named obs.StageRun) and pass it via
// Options.Span / SimOptions.Span.
func NewSpanTrace() *SpanTrace { return obs.NewTrace() }

// Flight-recorder tracing (package internal/trace). A TraceSink receives
// the simulator's typed event stream: job releases/completions/misses,
// VCPU replenishments, context switches, execution slices, throttles and
// BW replenishments, each stamped with tick time, core, VCPU and task.
type (
	// TraceEvent is one flight-recorder record.
	TraceEvent = trace.Event
	// TraceSink receives the event stream; nil disables tracing at no
	// cost. See NewTraceMemory, NewTraceRing, NewTraceJSONL and
	// NewTraceChrome for the built-in sinks.
	TraceSink = trace.Sink
	// TraceMemory is the in-memory sink (unbounded or a ring).
	TraceMemory = trace.Memory
	// TraceJSONL streams events as JSON lines.
	TraceJSONL = trace.JSONLWriter
	// TraceChrome exports Chrome trace-event JSON (open the file in
	// ui.perfetto.dev or chrome://tracing).
	TraceChrome = trace.ChromeWriter
	// MissReport aggregates per-miss diagnoses; see DiagnoseMisses.
	MissReport = trace.Report
)

// NewTraceMemory returns an unbounded in-memory trace sink.
func NewTraceMemory() *TraceMemory { return trace.NewMemory() }

// NewTraceRing returns an in-memory trace sink retaining only the most
// recent capacity events — the flight-recorder configuration for long
// runs where only the window around a failure matters.
func NewTraceRing(capacity int) *TraceMemory { return trace.NewRing(capacity) }

// NewTraceJSONL returns a streaming JSON-lines trace sink writing to w.
// Call Close to flush. Read streams back with ReadTraceJSONL.
func NewTraceJSONL(w io.Writer) *TraceJSONL { return trace.NewJSONLWriter(w) }

// ReadTraceJSONL decodes a JSON-lines stream written by a TraceJSONL.
func ReadTraceJSONL(r io.Reader) ([]TraceEvent, error) { return trace.ReadJSONL(r) }

// NewTraceChrome returns a trace sink exporting Chrome trace-event JSON
// to w: one thread track per (core, VCPU), instant markers for deadline
// misses and throttles. Call Close to complete the JSON document, then
// open the file in ui.perfetto.dev.
func NewTraceChrome(w io.Writer) *TraceChrome { return trace.NewChromeWriter(w) }

// MultiTrace fans the event stream out to several sinks (nils skipped).
func MultiTrace(sinks ...TraceSink) TraceSink { return trace.Multi(sinks...) }

// DiagnoseMisses replays an event stream and attributes every deadline
// miss to a cause: demand overrun, core throttled by the BW regulator,
// VCPU out of budget, or preemption by EDF-preferred VCPUs. Render the
// result with MissReport.Render.
func DiagnoseMisses(events []TraceEvent) *MissReport { return trace.Diagnose(events) }

// Mode selects the analysis used for VCPU parameters.
type Mode = alloc.CSAMode

const (
	// Flattening maps each task to a dedicated VCPU with a synchronized
	// release (Theorem 1) — zero abstraction overhead; requires the VM to
	// support one VCPU per task.
	Flattening = alloc.Flattening
	// OverheadFree packs tasks onto well-regulated VCPUs (Theorem 2) —
	// zero abstraction overhead; requires harmonic periods.
	OverheadFree = alloc.OverheadFree
	// ExistingCSA uses the classical periodic resource model (Shin & Lee),
	// carrying the abstraction overhead vC2M removes; provided for
	// comparison.
	ExistingCSA = alloc.ExistingCSA
	// Auto is the paper's complete strategy: flattening wherever the VM's
	// VCPU limit allows one VCPU per task, well-regulated VCPUs otherwise.
	Auto = alloc.Auto
)

// NewTask builds a task.
func NewTask(id, vm string, periodMs float64, wcet *ResourceTable) *Task {
	return &Task{ID: id, VM: vm, Period: periodMs, WCET: wcet}
}

// ConstWCET builds a resource-insensitive WCET table: the task takes
// wcetMs regardless of its core's cache and bandwidth allocation.
func ConstWCET(p Platform, wcetMs float64) *ResourceTable {
	return model.ConstTable(p, wcetMs)
}

// WCETFromFunc builds a WCET table from an arbitrary e(c,b) function, e.g.
// from measurements.
func WCETFromFunc(p Platform, f func(cache, bw int) float64) *ResourceTable {
	return model.FuncTable(p, f)
}

// BenchmarkWCET builds a WCET table from one of the built-in synthetic
// PARSEC benchmark profiles, scaled so that the WCET under the full
// allocation is refWCETMs.
func BenchmarkWCET(p Platform, benchmark string, refWCETMs float64) (*ResourceTable, error) {
	bm, err := parsec.ByName(benchmark)
	if err != nil {
		return nil, err
	}
	return bm.WCETTable(p, refWCETMs), nil
}

// Benchmarks returns the names of the built-in benchmark profiles.
func Benchmarks() []string { return parsec.Names() }

// MeasuredWCET builds a WCET table by trace-driven measurement instead of
// the closed-form model: the benchmark's synthetic memory-access stream is
// replayed through the way-partitioned cache simulator at every cache
// allocation, and real miss counts determine the slowdown surface — the
// paper's "WCET values can be obtained by measurement on vC2M" path. ops
// controls the trace length (0 picks a default); larger traces reduce
// cold-start bias. The result is scaled so the WCET under the full
// allocation is refWCETMs.
func MeasuredWCET(p Platform, benchmark string, refWCETMs float64, ops int) (*ResourceTable, error) {
	bm, err := parsec.ByName(benchmark)
	if err != nil {
		return nil, err
	}
	prof, err := bm.TraceProfile(p, parsec.TraceConfig{Ops: ops, Seed: 1})
	if err != nil {
		return nil, err
	}
	return prof.Scale(refWCETMs), nil
}

// Options configures Allocate.
type Options struct {
	// Mode selects the analysis; the zero value is Flattening.
	Mode Mode
	// Seed drives the randomized parts of the heuristic (cluster
	// permutations); identical seeds reproduce identical allocations.
	Seed int64
	// MaxIters bounds the random permutations tried per core count; zero
	// defaults to 10.
	MaxIters int
	// Clusters is the KMeans cluster count for grouping by slowdown
	// similarity; zero picks a default.
	Clusters int
	// Overheads inflates VCPU budgets for intra-core preemption overhead
	// before allocation; the zero value disables inflation.
	Overheads Overheads
	// Metrics, when non-nil, records the allocator's search effort
	// (dbf/sbf evaluations, clustering iterations, partition grants — see
	// NewMetrics). Nil disables recording at no cost.
	Metrics *MetricsRecorder
	// Provenance, when non-nil, records the allocator's decision stream
	// (see NewProvenance). Nil disables recording at no cost.
	Provenance *ProvenanceRecorder
	// Context, when non-nil, makes the allocation cancelable: the search
	// polls it between VMs and between hypervisor-level packing attempts
	// and aborts with the context's error once it is canceled or its
	// deadline passes. The allocation server uses this to bound run time
	// and to stop abandoned requests; nil disables the checks.
	//vc2m:ctxfield optional cancellation hook on the facade Options; nil runs to completion
	Context context.Context
	// Span, when non-nil, is the parent under which the allocator opens
	// wall-clock stage spans (VM level, CSA derivation, hypervisor-level
	// phases 1-3 — see NewSpanTrace). Nil disables span recording at no
	// cost. Spans never influence the allocation result.
	Span *Span
}

// Allocate runs the vC2M allocator on the system and returns a schedulable
// allocation or ErrNotSchedulable.
func Allocate(sys *System, opts Options) (*Allocation, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	h := &alloc.Heuristic{
		Mode:    opts.Mode,
		VMLevel: alloc.VMLevelConfig{Clusters: opts.Clusters},
		Hyper: alloc.HyperConfig{
			MaxIters:  opts.MaxIters,
			Clusters:  opts.Clusters,
			Overheads: opts.Overheads,
		},
		Metrics:    opts.Metrics,
		Provenance: opts.Provenance,
		Ctx:        opts.Context,
		Span:       opts.Span,
	}
	return h.Allocate(sys, rngutil.New(opts.Seed))
}

// Admit performs online admission control: it places a newly arriving
// VM's tasks onto an existing schedulable allocation without moving any
// placed VCPU or shrinking any core's partitions, growing cores with spare
// partitions where needed. On success a new allocation containing the VM
// is returned (the input is untouched); ErrNotSchedulable means the VM
// was rejected and the running system is unaffected.
func Admit(existing *Allocation, vm *VM, opts Options) (*Allocation, error) {
	return alloc.Admit(existing, vm, opts.Mode, rngutil.New(opts.Seed), opts.Provenance)
}

// Release removes a VM's VCPUs from an allocation — the online departure
// path complementing Admit. Cores left empty release their partitions;
// the input allocation is untouched.
func Release(existing *Allocation, vmID string) (*Allocation, error) {
	return alloc.Release(existing, vmID)
}

// ChurnDelta is one churn step against a running allocation: VM
// departures (applied first) and arrivals.
type ChurnDelta = alloc.Delta

// ChurnResult is the outcome of one warm-start re-allocation: the new
// layout plus the admitted/rejected/departed/migrated sets and the repack
// count. See Incremental.
type ChurnResult = alloc.IncrementalResult

// Incremental applies a churn delta to a previous schedulable allocation
// without recomputing the fleet: departures free capacity, and each
// arrival is warm-placed into freed/slack partitions — reusing the
// memoized budget tables of every untouched VM — before falling back to
// one full hypervisor-level repack. Arrivals that fit nowhere are rejected
// in the result (the layout is then unchanged for that VM), not returned
// as an error; errors are reserved for invalid input and leave prev
// untouched. The resulting allocation is always schedulable and validates
// against the final fleet's tasks — the equivalence contract the
// differential test suite enforces against from-scratch Allocate.
func Incremental(prev *Allocation, delta ChurnDelta, opts Options) (*ChurnResult, error) {
	cfg := alloc.IncrementalConfig{
		Mode:     opts.Mode,
		Clusters: opts.Clusters,
		Hyper: alloc.HyperConfig{
			MaxIters: opts.MaxIters,
			Clusters: opts.Clusters,
			Ctx:      opts.Context,
		},
		Overheads:  opts.Overheads,
		Metrics:    opts.Metrics,
		Provenance: opts.Provenance,
		Span:       opts.Span,
	}
	return alloc.Incremental(prev, delta, cfg, rngutil.New(opts.Seed))
}

// Solutions returns the five allocation strategies evaluated in the
// paper, in its legend order: Baseline (existing CSA), Evenly-partition
// (overhead-free CSA), Heuristic (existing CSA), Heuristic (overhead-free
// CSA), Heuristic (flattening).
func Solutions() []Allocator { return alloc.PaperSolutions() }

// SimOptions configures Simulate.
type SimOptions struct {
	// RegulationPeriodMs enables memory-bandwidth regulation with the
	// given period (e.g. 1 ms) when positive.
	RegulationPeriodMs float64
	// BWBudgets is the per-core request budget per regulation period.
	BWBudgets []int64
	// MemRate maps task IDs to memory request rates (requests per ms of
	// execution).
	MemRate map[string]float64
	// RecordTrace keeps the per-core execution trace (SimResult.Trace,
	// for RenderGantt) and the full typed event stream
	// (SimResult.Events, for DiagnoseMisses and the exporters) in the
	// result.
	RecordTrace bool
	// Trace, when non-nil, receives the typed flight-recorder event
	// stream as the simulation runs — use a streaming sink (JSONL,
	// Chrome) for horizons too large to retain via RecordTrace. Nil
	// disables emission at no cost.
	Trace TraceSink
	// Metrics, when non-nil, receives the run's aggregate event counters
	// (context switches, replenishments, deadline misses, ...).
	Metrics *MetricsRecorder
	// Span, when non-nil, is the parent under which the simulator opens
	// its wall-clock stage span (see NewSpanTrace). Nil disables span
	// recording at no cost; spans never influence the simulation result.
	Span *Span
}

// SimResult is the outcome of a simulation run.
type SimResult = hypersim.Result

// TaskMetrics summarizes one task's simulated behaviour.
type TaskMetrics = hypersim.TaskMetrics

// Simulate executes the allocation on the hypervisor simulator for
// horizonMs milliseconds and reports deadline behaviour and scheduler
// activity. A schedulable allocation produces zero misses.
func Simulate(a *Allocation, horizonMs float64, opts SimOptions) (*SimResult, error) {
	if horizonMs <= 0 {
		return nil, fmt.Errorf("vc2m: horizon %v ms, need > 0", horizonMs)
	}
	cfg := hypersim.Config{
		BWBudgets:   opts.BWBudgets,
		MemRate:     opts.MemRate,
		RecordTrace: opts.RecordTrace,
		Trace:       opts.Trace,
		Metrics:     opts.Metrics,
		Span:        opts.Span,
	}
	if opts.RegulationPeriodMs > 0 {
		cfg.RegulationPeriod = timeunit.FromMillis(opts.RegulationPeriodMs)
	}
	s, err := hypersim.New(a, cfg)
	if err != nil {
		return nil, err
	}
	return s.Run(timeunit.FromMillis(horizonMs)), nil
}

// RenderGantt renders a window [fromMs, toMs) of a simulation's execution
// trace as per-core ASCII timelines (one row per VCPU). The simulation
// must have been run with SimOptions.RecordTrace. It makes the
// well-regulated execution pattern of Theorem 2 directly visible: every
// period renders with the same shape.
func RenderGantt(res *SimResult, fromMs, toMs float64, width int) string {
	return hypersim.RenderGantt(res.Trace,
		timeunit.FromMillis(fromMs), timeunit.FromMillis(toMs), width)
}

// WorkloadConfig configures GenerateWorkload.
type WorkloadConfig struct {
	// Platform the tasks are generated for.
	Platform Platform
	// TargetRefUtil is the taskset's target total reference utilization.
	TargetRefUtil float64
	// Distribution is one of "uniform", "light", "medium", "heavy".
	Distribution string
	// NumVMs spreads tasks round-robin across this many VMs (default 2).
	NumVMs int
	// Seed makes generation reproducible.
	Seed int64
}

// GenerateWorkload produces a random taskset following the paper's
// workload model: harmonic periods in [100, 1100] ms and WCET tables
// derived from the synthetic PARSEC profiles.
func GenerateWorkload(cfg WorkloadConfig) (*System, error) {
	dist := workload.Uniform
	if cfg.Distribution != "" {
		var err error
		dist, err = workload.ParseDistribution(cfg.Distribution)
		if err != nil {
			return nil, err
		}
	}
	return workload.Generate(workload.Config{
		Platform:      cfg.Platform,
		TargetRefUtil: cfg.TargetRefUtil,
		Dist:          dist,
		NumVMs:        cfg.NumVMs,
	}, rngutil.New(cfg.Seed))
}
