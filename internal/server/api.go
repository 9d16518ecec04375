// Package server turns the vC2M allocator into a long-running service: an
// HTTP/JSON daemon that accepts taskset/VM/platform specs, runs
// allocations concurrently through the vc2m facade on a bounded worker
// pool, tracks them in a run registry keyed by deterministic run IDs, and
// serves each run's schema-versioned report document and live provenance
// decision stream. cmd/vc2m-server is the daemon; package client is the
// typed Go client; vc2m-sim and vc2m-paper gain -server modes that submit
// here instead of running in-process.
//
// Determinism contract: the service adds nothing nondeterministic on top
// of the facade. Run IDs are counter-based, reports carry no wall-clock
// data, and a run submitted with the same spec and seeds produces a
// report byte-identical to the same run executed in-process — the golden
// tests assert this.
package server

import (
	"fmt"

	"vc2m"
	"vc2m/internal/model"
	"vc2m/internal/obs"
	"vc2m/internal/workload"
)

// Run kinds accepted by Submit.
const (
	// KindRun allocates (and optionally simulates) one system — the
	// vc2m-sim path.
	KindRun = "run"
	// KindSweep runs a schedulability sweep over generated tasksets — the
	// vc2m-paper and vc2m-paper sweep path.
	KindSweep = "sweep"
	// KindChurn applies a sequence of VM arrival/departure deltas to a
	// finished base run's allocation through the incremental warm-start
	// allocator (POST /v1/runs/{id}/churn).
	KindChurn = "churn"
)

// SubmitRequest is the wire form of a run submission (POST /v1/runs). It
// reuses the model/workload wire schemas, so a system dumped by
// `vc2m-sim -dump-system` posts unchanged.
type SubmitRequest struct {
	// Kind is KindRun (the default when empty) or KindSweep.
	Kind string `json:"kind,omitempty"`
	// Title overrides the report document's title. Empty derives
	// "vc2m-server <mode> run (seed <gen_seed>)".
	Title string `json:"title,omitempty"`
	// Mode is the analysis mode: "flattening" (default), "overheadfree"
	// or "existing".
	Mode string `json:"mode,omitempty"`
	// Seed drives the allocator's randomized search (KindRun) or the
	// sweep's workload streams (KindSweep).
	Seed int64 `json:"seed,omitempty"`

	// System is the explicit taskset to allocate (KindRun). Exactly one
	// of System and Generate must be set for a run.
	System *model.System `json:"system,omitempty"`
	// Generate asks the server to generate the taskset from a workload
	// spec instead (KindRun).
	Generate *workload.Config `json:"generate,omitempty"`
	// GenSeed seeds workload generation and stamps the report (mirrors
	// vc2m-sim's -gen-seed).
	GenSeed int64 `json:"gen_seed,omitempty"`
	// SimulateMs, when positive, executes the accepted allocation on the
	// hypervisor simulator for this horizon (KindRun).
	SimulateMs float64 `json:"simulate_ms,omitempty"`
	// Metrics attaches a search-effort recorder; the report then carries
	// the deterministic counter subset.
	Metrics bool `json:"metrics,omitempty"`

	// Sweep parameterizes a KindSweep submission.
	Sweep *SweepSpec `json:"sweep,omitempty"`

	// Churn parameterizes a KindChurn submission. The churn endpoint
	// (POST /v1/runs/{id}/churn) fills BaseRun from the URL.
	Churn *ChurnSpec `json:"churn,omitempty"`
}

// ChurnSpec is the wire form of an incremental churn run (KindChurn): a
// finished base run whose allocation seeds the warm-start allocator, and
// the ordered arrival/departure deltas to apply to it. Event i runs with
// seed Seed+i, so a churn run is as reproducible as every other run.
type ChurnSpec struct {
	// BaseRun is the registry ID of the run whose accepted allocation the
	// churn sequence starts from. The churn run waits for it to finish.
	BaseRun string `json:"base_run"`
	// Events are applied in order; each is one Incremental call.
	Events []ChurnEvent `json:"events"`
}

// ChurnEvent is one churn delta: VMs arriving and VM IDs departing. An
// event may carry both; departures apply first, exactly like the
// allocator's Delta. An empty event is a (wasteful but legal) identity.
type ChurnEvent struct {
	Arrivals   []*model.VM `json:"arrivals,omitempty"`
	Departures []string    `json:"departures,omitempty"`
}

// SweepSpec is the wire form of a schedulability sweep (KindSweep).
// Zero-valued fields take the paper's defaults (util 0.1..2.0 step 0.05,
// 50 tasksets per point, serial execution).
type SweepSpec struct {
	// Platform names the evaluation platform: "A", "B" or "C".
	Platform string `json:"platform"`
	// Dist is the task-utilization distribution name ("uniform",
	// "bimodal-light", ...); empty means uniform.
	Dist string `json:"dist,omitempty"`
	// UtilMin, UtilMax, UtilStep define the x-axis grid.
	UtilMin  float64 `json:"util_min,omitempty"`
	UtilMax  float64 `json:"util_max,omitempty"`
	UtilStep float64 `json:"util_step,omitempty"`
	// TasksetsPerPoint is the number of tasksets per utilization.
	TasksetsPerPoint int `json:"tasksets_per_point,omitempty"`
	// Parallel analyzes up to this many tasksets concurrently per point;
	// results are bit-identical to serial execution.
	Parallel int `json:"parallel,omitempty"`
}

// Validate checks the submission before it is queued, so malformed specs
// fail the POST instead of surfacing later as a failed run.
func (r *SubmitRequest) Validate() error {
	switch r.Kind {
	case "", KindRun:
		if (r.System == nil) == (r.Generate == nil) {
			return fmt.Errorf("server: a run needs exactly one of system and generate")
		}
		if r.System != nil {
			if err := r.System.Validate(); err != nil {
				return err
			}
		}
		if r.Generate != nil {
			if err := r.Generate.Platform.Validate(); err != nil {
				return err
			}
			if r.Generate.TargetRefUtil <= 0 {
				return fmt.Errorf("server: generate.target_ref_util %v, need > 0", r.Generate.TargetRefUtil)
			}
		}
		if r.SimulateMs < 0 {
			return fmt.Errorf("server: simulate_ms %v, need >= 0", r.SimulateMs)
		}
		if r.Sweep != nil {
			return fmt.Errorf("server: sweep spec on a %q submission", KindRun)
		}
		if r.Churn != nil {
			return fmt.Errorf("server: churn spec on a %q submission", KindRun)
		}
	case KindSweep:
		if r.Sweep == nil {
			return fmt.Errorf("server: a sweep needs a sweep spec")
		}
		if _, err := model.PlatformByName(r.Sweep.Platform); err != nil {
			return err
		}
		if r.Sweep.Dist != "" {
			if _, err := workload.ParseDistribution(r.Sweep.Dist); err != nil {
				return err
			}
		}
		if r.System != nil || r.Generate != nil {
			return fmt.Errorf("server: system/generate on a %q submission", KindSweep)
		}
		if r.Churn != nil {
			return fmt.Errorf("server: churn spec on a %q submission", KindSweep)
		}
	case KindChurn:
		if r.Churn == nil {
			return fmt.Errorf("server: a churn run needs a churn spec")
		}
		if r.Churn.BaseRun == "" {
			return fmt.Errorf("server: churn spec needs a base_run")
		}
		if len(r.Churn.Events) == 0 {
			return fmt.Errorf("server: churn spec needs at least one event")
		}
		for i, ev := range r.Churn.Events {
			for _, vm := range ev.Arrivals {
				if vm == nil || vm.ID == "" {
					return fmt.Errorf("server: churn event %d has an arrival without a VM ID", i)
				}
			}
			for _, id := range ev.Departures {
				if id == "" {
					return fmt.Errorf("server: churn event %d has an empty departure ID", i)
				}
			}
		}
		if r.System != nil || r.Generate != nil || r.Sweep != nil {
			return fmt.Errorf("server: system/generate/sweep on a %q submission", KindChurn)
		}
		if r.SimulateMs != 0 { //vc2m:floateq zero is the field's never-set sentinel, not a computed value
			return fmt.Errorf("server: simulate_ms on a %q submission", KindChurn)
		}
	default:
		return fmt.Errorf("server: unknown kind %q", r.Kind)
	}
	if _, _, err := ParseMode(r.Mode); err != nil {
		return err
	}
	return nil
}

// ParseMode maps a wire mode name (or vc2m-sim's -mode flag) to the facade
// mode, returning the normalized name used in reports. Empty defaults to
// flattening.
func ParseMode(name string) (vc2m.Mode, string, error) {
	switch name {
	case "", "flattening":
		return vc2m.Flattening, "flattening", nil
	case "overheadfree", "overhead-free":
		return vc2m.OverheadFree, "overheadfree", nil
	case "existing":
		return vc2m.ExistingCSA, "existing", nil
	}
	return 0, "", fmt.Errorf("server: unknown mode %q", name)
}

// RunStatus is the wire form of a registry entry (GET /v1/runs/{id} and
// the elements of GET /v1/runs).
type RunStatus struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State State  `json:"state"`
	Title string `json:"title,omitempty"`
	// Error is the failure reason on failed/canceled runs.
	Error string `json:"error,omitempty"`
	// Decisions counts provenance decisions recorded so far — it grows
	// while the run executes, so pollers can show progress.
	Decisions int `json:"decisions"`
	// Schedulable reports the allocation verdict once the run is done
	// (absent on sweeps and unfinished runs).
	Schedulable *bool `json:"schedulable,omitempty"`
	// TraceID is the run's W3C trace ID — the submitting client's
	// (propagated via the traceparent header) or one minted at submission.
	// Wire status only: trace IDs never enter report documents.
	TraceID string `json:"trace_id,omitempty"`
}

// SubmitResponse acknowledges a queued submission.
type SubmitResponse struct {
	ID    string `json:"id"`
	State State  `json:"state"`
}

// ErrorResponse is the wire form of every non-2xx response body.
type ErrorResponse struct {
	Error string `json:"error"`
}

// HealthStatus is the wire form of GET /healthz: liveness plus the
// binary's build identity and uptime, so one probe answers "is it up,
// what is it, and since when".
type HealthStatus struct {
	// Status is "ok" while accepting work, "draining" once shutdown began.
	Status string `json:"status"`
	// Build identifies the running binary (link-time version stamp, VCS
	// commit, toolchain).
	Build obs.BuildInfo `json:"build"`
	// UptimeSeconds is the wall time since the server was constructed.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Draining mirrors Status for programmatic checks.
	Draining bool `json:"draining,omitempty"`
}

// ServiceMetrics is the wire form of GET /api/metrics (GET /metrics
// serves the Prometheus text exposition): registry and worker pool
// gauges. All values are counters or instantaneous queue
// depths — no wall-clock data, like every document this service produces.
type ServiceMetrics struct {
	Submitted int           `json:"submitted"`
	ByState   map[State]int `json:"by_state"`
	Workers   int           `json:"workers"`
	QueueCap  int           `json:"queue_cap"`
	QueueLen  int           `json:"queue_len"`
	Draining  bool          `json:"draining"`
	// Event-bus counters: lifecycle events published since startup, events
	// dropped because a subscriber's buffer was full, and the number of
	// SSE subscribers currently attached.
	EventsPublished  uint64 `json:"events_published"`
	EventsDropped    uint64 `json:"events_dropped"`
	EventSubscribers int    `json:"event_subscribers"`
}
