package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"vc2m"
	"vc2m/internal/alloc"
	"vc2m/internal/experiment"
	"vc2m/internal/model"
	"vc2m/internal/obs"
	"vc2m/internal/provenance"
	"vc2m/internal/report"
	"vc2m/internal/rngutil"
	"vc2m/internal/workload"
)

// execute runs one registry entry to its terminal state. It mirrors the
// batch drivers exactly — same facade calls, same report construction —
// so a server run's document is byte-identical to the same spec executed
// by vc2m-sim or vc2m-paper sweep with the same seeds. Every run executes
// under a wall-clock span trace whose stage durations feed the
// vc2m_stage_latency_seconds histograms and the slow-run log; spans live
// strictly outside the report, so the identity holds with them on.
func (s *Server) execute(ctx context.Context, run *Run) {
	if ctx.Err() != nil || !run.setRunning() {
		s.om.runFinished(s.log, run, StateCanceled, nil, 0, s.cfg.SlowRun)
		s.finishRun(run, StateCanceled, nil, nil, "canceled before execution")
		return
	}
	// The run executes under the trace context it was submitted with
	// (client-propagated traceparent or minted at registration), so server
	// spans — and the latency exemplars fed from them — join the
	// submitting client's trace.
	tc := run.TraceContext()
	s.log.Info("run started", "run", run.ID(), "kind", run.kind, "trace", tc.TraceID)
	tr := obs.NewTraceWith(tc)
	root := tr.StartSpan(obs.StageRun)
	root.SetAttr("run", run.ID())
	if run.reqID != "" {
		root.SetAttr("req", run.reqID)
	}
	s.events.publish(RunEvent{
		Type: EventStarted, Run: run.ID(), Kind: run.kind,
		State: StateRunning, TraceID: tc.TraceID,
	})
	begin := time.Now() //vc2m:wallclock run latency feeds the slow-run log
	var doc *report.Document
	var finalAlloc *model.Allocation
	var err error
	switch run.kind {
	case KindSweep:
		doc, err = executeSweep(ctx, run.req, run.prov, root)
	case KindChurn:
		doc, finalAlloc, err = s.executeChurn(ctx, run, root)
	default:
		doc, finalAlloc, err = executeRun(ctx, run.req, run.prov, root)
	}
	root.End()
	elapsed := time.Since(begin) //vc2m:wallclock run latency feeds the slow-run log
	var data []byte
	state, errMsg := StateDone, ""
	switch {
	case err != nil && ctx.Err() != nil:
		state, errMsg = StateCanceled, err.Error()
	case err != nil:
		state, errMsg = StateFailed, err.Error()
	default:
		if data, err = report.Marshal(doc); err != nil {
			state, errMsg = StateFailed, err.Error()
			break
		}
		// Store the accepted allocation before finish, so anyone woken by
		// Done() — a churn run waiting on this base, in particular —
		// observes it.
		run.setAllocation(finalAlloc)
	}
	if state != StateDone {
		// The stream is final and this run keeps it, so keep it at its
		// exact length. A done run's report holds the stream instead.
		doc, data = nil, nil
		run.prov.Trim()
	}
	// Record the run's metrics before finish, so a client woken by Done()
	// scrapes a /metrics that already counts this run.
	s.om.runFinished(s.log, run, state, tr, elapsed, s.cfg.SlowRun)
	s.finishRun(run, state, doc, data, errMsg)
}

// finishRun publishes the run's terminal lifecycle event and then records
// the terminal state. Publish-before-finish is deliberate: the event is in
// the bus ring and on every subscriber channel before Done() closes, so an
// observer woken by Done() finds it already published.
func (s *Server) finishRun(run *Run, state State, doc *report.Document, docJSON []byte, errMsg string) {
	ev := RunEvent{
		Type: EventFinished, Run: run.ID(), Kind: run.kind, State: state,
		TraceID: run.TraceContext().TraceID, Error: errMsg, Decisions: run.prov.Len(),
	}
	if doc != nil && doc.Rejection != nil {
		// A rejected allocation is done, not failed — but it gets its own
		// event type so dashboards can track admit/reject rates directly.
		ev.Type = EventRejected
	}
	s.events.publish(ev)
	run.finish(state, doc, docJSON, errMsg)
}

// executeRun is the KindRun path: allocate one system, optionally
// simulate, and assemble the report the way cmd/vc2m-sim does. The
// accepted allocation is returned alongside the document so the registry
// can retain it for later churn runs (nil on rejection).
func executeRun(ctx context.Context, req SubmitRequest, prov *provenance.Recorder, sp *obs.Span) (*report.Document, *model.Allocation, error) {
	sys, err := buildSystem(req)
	if err != nil {
		return nil, nil, err
	}
	mode, modeName, err := ParseMode(req.Mode)
	if err != nil {
		return nil, nil, err
	}
	var rec *vc2m.MetricsRecorder
	if req.Metrics {
		rec = vc2m.NewMetrics()
	}
	title := req.Title
	if title == "" {
		title = fmt.Sprintf("vc2m-server %s run (seed %d)", modeName, req.GenSeed)
	}
	in := report.RunInput{
		Title:      title,
		Seed:       req.GenSeed,
		Mode:       modeName,
		Platform:   sys.Platform,
		Metrics:    rec,
		Provenance: prov,
	}
	a, aerr := vc2m.Allocate(sys, vc2m.Options{
		Mode: mode, Seed: req.Seed, Metrics: rec, Provenance: prov, Context: ctx, Span: sp,
	})
	if aerr != nil {
		if ctx.Err() != nil || errors.Is(aerr, model.ErrInvalidSystem) {
			return nil, nil, aerr
		}
		// The rejection is itself a result: the report carries the
		// decision trail with the binding resource(s).
		in.Rejection = ToRejection(aerr)
		return report.BuildRun(in), nil, nil
	}
	in.Allocation = a
	if req.SimulateMs > 0 {
		if in.Sim, in.Diagnosis, err = simulate(a, req.SimulateMs, rec, sp); err != nil {
			return nil, nil, err
		}
	}
	return report.BuildRun(in), a, nil
}

// simulate runs the allocation on hypersim for horizonMs and, when a
// deadline is missed, diagnoses the misses. The report keeps only the
// run's summary, so the run records no event stream; a run that misses is
// simulated again with the stream kept, for the diagnosis alone. hypersim
// is deterministic, so the second run replays the first. It gets no
// recorder and no span, so the run's counters and stages count once.
func simulate(a *model.Allocation, horizonMs float64, rec *vc2m.MetricsRecorder, sp *obs.Span) (*vc2m.SimResult, *vc2m.MissReport, error) {
	res, err := vc2m.Simulate(a, horizonMs, vc2m.SimOptions{Metrics: rec, Span: sp})
	if err != nil || res.Missed == 0 {
		return res, nil, err
	}
	traced, err := vc2m.Simulate(a, horizonMs, vc2m.SimOptions{RecordTrace: true})
	if err != nil {
		return nil, nil, err
	}
	return res, vc2m.DiagnoseMisses(traced.Events), nil
}

// executeChurn is the KindChurn path: wait for the base run's allocation,
// apply the churn events in order through the incremental warm-start
// allocator (event i with seed Seed+i), and report the final layout. The
// report is built exactly like a KindRun document of the final
// allocation, so the byte-identity contract extends to churn: the served
// document equals an in-process vc2m.Incremental replay of the same base
// and events with the same seeds.
func (s *Server) executeChurn(ctx context.Context, run *Run, sp *obs.Span) (*report.Document, *model.Allocation, error) {
	req := run.req
	spec := req.Churn
	base, ok := s.reg.Get(spec.BaseRun)
	if !ok {
		return nil, nil, fmt.Errorf("server: churn base run %q not found", spec.BaseRun)
	}
	select {
	case <-base.Done():
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
	prev := base.Allocation()
	if prev == nil {
		return nil, nil, fmt.Errorf("server: churn base run %s is %s with no accepted allocation",
			base.ID(), base.Status().State)
	}
	mode, modeName, err := ParseMode(req.Mode)
	if err != nil {
		return nil, nil, err
	}
	var rec *vc2m.MetricsRecorder
	if req.Metrics {
		rec = vc2m.NewMetrics()
	}
	cur := prev
	for i, ev := range spec.Events {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		res, err := vc2m.Incremental(cur, vc2m.ChurnDelta{Arrivals: ev.Arrivals, Departures: ev.Departures},
			vc2m.Options{Mode: mode, Seed: req.Seed + int64(i), Metrics: rec,
				Provenance: run.prov, Context: ctx, Span: sp})
		if err != nil {
			return nil, nil, fmt.Errorf("server: churn event %d: %w", i, err)
		}
		cur = res.Allocation
		s.events.publish(RunEvent{
			Type: EventChurn, Run: run.ID(), Kind: run.kind, State: StateRunning,
			TraceID:    run.TraceContext().TraceID,
			ChurnEvent: i + 1,
			Admitted:   len(res.Admitted),
			Rejected:   len(res.Rejected),
			Departed:   len(res.Departed),
			Migrated:   len(res.Migrated),
		})
	}
	title := req.Title
	if title == "" {
		title = fmt.Sprintf("vc2m-server churn run (base %s, seed %d)", base.ID(), req.Seed)
	}
	doc := report.BuildRun(report.RunInput{
		Title:      title,
		Seed:       req.Seed,
		Mode:       modeName,
		Platform:   cur.Platform,
		Allocation: cur,
		Metrics:    rec,
		Provenance: run.prov,
	})
	return doc, cur, nil
}

// buildSystem materializes the run's taskset: the posted system verbatim,
// or a workload generated from the posted spec with the request's
// generation seed — the same call vc2m-sim's loadOrGenerate makes. A
// posted system is not validated here: submit did, and vc2m.Allocate
// does again.
func buildSystem(req SubmitRequest) (*model.System, error) {
	if req.System != nil {
		return req.System, nil
	}
	if req.Generate == nil {
		return nil, fmt.Errorf("server: run has neither system nor generate spec")
	}
	return workload.Generate(*req.Generate, rngutil.New(req.GenSeed))
}

// executeSweep is the KindSweep path: a schedulability sweep whose curves
// land in a KindSweep document, decision-per-case provenance included.
func executeSweep(ctx context.Context, req SubmitRequest, prov *provenance.Recorder, sp *obs.Span) (*report.Document, error) {
	spec := req.Sweep
	plat, err := model.PlatformByName(spec.Platform)
	if err != nil {
		return nil, err
	}
	dist := workload.Uniform
	if spec.Dist != "" {
		if dist, err = workload.ParseDistribution(spec.Dist); err != nil {
			return nil, err
		}
	}
	_, modeName, err := ParseMode(req.Mode)
	if err != nil {
		return nil, err
	}
	res, err := experiment.RunSchedulability(experiment.SchedConfig{
		Platform:         plat,
		Dist:             dist,
		UtilMin:          spec.UtilMin,
		UtilMax:          spec.UtilMax,
		UtilStep:         spec.UtilStep,
		TasksetsPerPoint: spec.TasksetsPerPoint,
		Seed:             req.Seed,
		Parallel:         spec.Parallel,
		Provenance:       prov,
		Context:          ctx,
		Span:             sp,
	})
	if err != nil {
		return nil, err
	}
	title := req.Title
	if title == "" {
		title = fmt.Sprintf("vc2m-server sweep %s/%s (seed %d)", plat.Name, dist, req.Seed)
	}
	return report.BuildSweep(report.SweepInput{
		Title:      title,
		Seed:       req.Seed,
		Mode:       modeName,
		Platform:   plat,
		Sweep:      res.ReportSweep(),
		Provenance: prov,
	}), nil
}

// ToRejection translates an allocator error into the report's rejection
// section, preserving the binding resource(s) of a RejectionError (package
// report deliberately does not import alloc). A nil error has no rejection.
func ToRejection(err error) *report.Rejection {
	if err == nil {
		return nil
	}
	rej := &report.Rejection{Reason: err.Error(), Violated: []string{"cpu"}}
	if re, ok := alloc.AsRejection(err); ok {
		rej.Stage = re.Stage
		rej.Violated = rej.Violated[:0]
		for _, r := range re.Violated {
			rej.Violated = append(rej.Violated, string(r))
		}
	}
	return rej
}
