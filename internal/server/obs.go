package server

import (
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"vc2m/internal/obs"
	"vc2m/internal/provenance"
)

// serverObs bundles the server's Prometheus surface: run/decision
// counters, pool gauges and per-stage latency histograms, all registered
// on one text-exposition registry served at GET /metrics. Everything here
// lives strictly outside the report documents — scraping a server changes
// no run's bytes.
type serverObs struct {
	reg        *obs.PromRegistry
	runs       *obs.Counter   // vc2m_runs_total{state}
	decisions  *obs.Counter   // vc2m_decisions_total{stage,kind}
	stageLat   *obs.Histogram // vc2m_stage_latency_seconds{stage}
	eventsDrop *obs.Counter   // vc2m_events_dropped_total
	httpm      *obs.HTTPMetrics
}

// stageLatStages lists every span stage preregistered on the per-stage
// latency histogram. The stagedrift analyzer holds this list equal to the
// obs package's span-stage constant set, so a new pipeline stage cannot
// ship without its histogram series — and a deleted line here fails lint
// naming the missing stage.
//
//vc2m:stageset span
var stageLatStages = []string{
	obs.StageRun,
	obs.StageVMLevel,
	obs.StageCSADerive,
	obs.StageHyper,
	obs.StagePhase1,
	obs.StagePhase2,
	obs.StagePhase3,
	obs.StageIncremental,
	obs.StageHypersim,
	obs.StageSweepPoint,
}

// decisionPrereg lists the provenance (stage, kind) series preregistered
// on the decision counter — one exemplar kind per pipeline stage the
// dashboards key on. stagedrift checks every string stays inside the
// provenance vocabulary.
//
//vc2m:stageset provenance-subset
var decisionPrereg = []struct{ stage, kind string }{
	{provenance.StageVMLevel, provenance.KindMap},
	{provenance.StageCSA, provenance.KindInterface},
	{provenance.StageHyper, provenance.KindAttempt},
	{provenance.StageIncremental, provenance.KindAdmit},
	{provenance.StageIncremental, provenance.KindEvict},
	{provenance.StageRepack, provenance.KindMigrate},
}

// newServerObs registers the service's metric families. Gauges that track
// pool state are sampled at scrape time via closures over s, so they need
// no bookkeeping on the hot path. s.events must already be constructed:
// the drop counter hooks into the bus here.
func newServerObs(s *Server) *serverObs {
	reg := obs.NewPromRegistry()
	o := &serverObs{
		reg: reg,
		runs: reg.NewCounter("vc2m_runs_total",
			"Runs by terminal state (done includes rejected allocations: a rejection is a result).",
			"state"),
		decisions: reg.NewCounter("vc2m_decisions_total",
			"Provenance decisions recorded, by pipeline stage and decision kind.",
			"stage", "kind"),
		stageLat: reg.NewHistogram("vc2m_stage_latency_seconds",
			"Wall-clock latency of allocator pipeline stages, from run span traces.",
			nil, "stage"),
		eventsDrop: reg.NewCounter("vc2m_events_dropped_total",
			"Lifecycle events dropped because an SSE subscriber's buffer was full; workers never block on slow consumers."),
		httpm: obs.NewHTTPMetrics(reg),
	}
	o.eventsDrop.Preregister()
	// Preregister the series a fresh server will eventually emit, so the
	// first scrape already shows every family with zero-valued samples —
	// dashboards and the smoke test's exposition parser see the full
	// schema before the first run finishes.
	for _, st := range []State{StateDone, StateFailed, StateCanceled} {
		o.runs.Preregister(string(st))
	}
	for _, dp := range decisionPrereg {
		o.decisions.Preregister(dp.stage, dp.kind)
	}
	for _, stage := range stageLatStages {
		o.stageLat.Preregister(stage)
	}

	reg.NewGaugeFunc("vc2m_queue_depth",
		"Pending runs waiting in the bounded submission queue.",
		func() float64 { return float64(len(s.queue)) })
	reg.NewGaugeFunc("vc2m_workers_in_flight",
		"Workers currently executing a run.",
		func() float64 { return float64(s.inFlight.Load()) })
	reg.NewGaugeFunc("vc2m_worker_pool_size",
		"Configured worker pool size.",
		func() float64 { return float64(s.cfg.Workers) })
	reg.NewGaugeFunc("vc2m_queue_capacity",
		"Configured submission queue capacity.",
		func() float64 { return float64(s.cfg.Queue) })
	reg.NewGaugeFunc("vc2m_draining",
		"1 once shutdown has begun and new submissions are refused, else 0.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.draining {
				return 1
			}
			return 0
		})
	reg.NewGaugeFunc("vc2m_event_subscribers",
		"SSE subscribers currently attached to the run-lifecycle event bus.",
		func() float64 {
			_, _, subs := s.events.stats()
			return float64(subs)
		})
	reg.NewGaugeFunc("vc2m_events_published",
		"Run-lifecycle events published on the event bus since startup.",
		func() float64 {
			published, _, _ := s.events.stats()
			return float64(published)
		})
	reg.NewGaugeFunc("vc2m_uptime_seconds",
		"Seconds since the server was constructed.",
		func() float64 { return time.Since(s.start).Seconds() }) //vc2m:wallclock uptime is wall time by definition

	s.events.onDrop = func(n int) { o.eventsDrop.Add(float64(n)) }

	bi := obs.GetBuildInfo()
	buildInfo := reg.NewGauge("vc2m_build_info",
		"Build identity; the value is always 1, the labels carry the information.",
		"version", "commit", "go_version")
	buildInfo.Set(1, bi.Version, bi.Commit, bi.GoVersion)
	return o
}

// runFinished records a run's terminal state, adds its decisions by stage
// and kind to vc2m_decisions_total, feeds the per-stage latency histograms
// from its span trace, and emits the slow-run breakdown when the run
// exceeded the configured threshold. It runs once per run, after the run's
// last decision and before the run is marked finished, so the state is
// passed in. Nil-safe: a server without observability (zero-value
// construction in tests) skips everything.
func (o *serverObs) runFinished(log *obs.Logger, run *Run, state State, tr *obs.Trace, elapsed, slowRun time.Duration) {
	if o == nil {
		return
	}
	for _, c := range tallyDecisions(run.prov) {
		o.decisions.Add(float64(c.n), c.stage, c.kind)
	}
	o.runs.Inc(string(state))
	// Exemplars tie each latency bucket to the trace that landed in it, so
	// a slow bucket on /metrics names the exact run to pull spans for.
	for _, rec := range tr.Snapshot() {
		o.stageLat.ObserveExemplar(rec.Duration.Seconds(), tr.TraceID(), rec.Name)
	}
	if !log.LogSlow(tr, run.ID(), elapsed, slowRun) {
		log.Info("run finished",
			"run", run.ID(),
			"kind", run.kind,
			"state", string(state),
			"trace", run.TraceContext().TraceID,
			"decisions", run.prov.Len(),
			"elapsed", elapsed,
		)
	}
}

// decisionCount is the number of a run's decisions of one stage and kind.
type decisionCount struct {
	stage, kind string
	n           int
}

// tallyDecisions counts the recorded stream by (stage, kind) in one pass,
// in first-seen order. A run records a dozen distinct pairs at most, so a
// scan beats a map.
func tallyDecisions(prov *provenance.Recorder) []decisionCount {
	var counts []decisionCount
	prov.Each(func(d provenance.Decision) {
		i := 0
		for i < len(counts) && (counts[i].stage != d.Stage || counts[i].kind != d.Kind) {
			i++
		}
		if i == len(counts) {
			counts = append(counts, decisionCount{stage: d.Stage, kind: d.Kind})
		}
		counts[i].n++
	})
	return counts
}

// stageSink publishes a stage-entered lifecycle event the first time the
// run's provenance decision stream enters each pipeline stage, then
// forwards to the next sink. The hypervisor-level search alternates
// between its stages on every permutation; publishing first entries only
// keeps the event stream proportional to pipeline depth, not decision
// count. A nil *stageSink forwards nowhere, like every sink in this
// repository.
type stageSink struct {
	bus     *eventBus
	run     string
	kind    string
	traceID string
	next    provenance.Sink

	mu sync.Mutex
	// entered lists every stage already published; a run enters half a
	// dozen at most.
	//vc2m:guardedby mu
	entered []string
}

// Record implements provenance.Sink.
func (s *stageSink) Record(d provenance.Decision) {
	if s == nil {
		return
	}
	s.mu.Lock()
	first := !slices.Contains(s.entered, d.Stage)
	if first {
		s.entered = append(s.entered, d.Stage)
	}
	s.mu.Unlock()
	if first {
		s.bus.publish(RunEvent{
			Type: EventStage, Run: s.run, Kind: s.kind,
			State: StateRunning, Stage: d.Stage, TraceID: s.traceID,
		})
	}
	if s.next != nil {
		s.next.Record(d)
	}
}

// routeLabel normalizes request paths to the bounded label set the HTTP
// metrics use — run IDs collapse into "{id}" so series cardinality stays
// constant no matter how many runs the registry holds.
func routeLabel(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/healthz" || p == "/metrics" || p == "/api/metrics" || p == "/v1/runs",
		p == "/v1/events" || p == "/dashboard":
		return p
	case strings.HasPrefix(p, "/debug/pprof"):
		return "/debug/pprof"
	case strings.HasPrefix(p, "/debug/"):
		return "/debug"
	case strings.HasPrefix(p, "/v1/runs/"):
		rest := strings.TrimPrefix(p, "/v1/runs/")
		i := strings.IndexByte(rest, '/')
		if i < 0 {
			return "/v1/runs/{id}"
		}
		switch rest[i:] {
		case "/report", "/provenance", "/cancel", "/churn":
			return "/v1/runs/{id}" + rest[i:]
		}
		return "/v1/runs/{id}/other"
	}
	return "other"
}
