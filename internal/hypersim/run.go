package hypersim

import (
	"sort"

	"vc2m/internal/obs"
	"vc2m/internal/sim"
	"vc2m/internal/stats"
	"vc2m/internal/timeunit"
	"vc2m/internal/trace"
)

// TaskMetrics summarizes one task's behaviour over a run.
type TaskMetrics struct {
	// Released is the number of jobs released.
	Released int
	// Completed is the number of jobs that finished.
	Completed int
	// Missed is the number of jobs unfinished at their deadline (such jobs
	// are discarded, so one overload does not cascade into later jobs).
	Missed int
	// MaxResponse is the largest observed job response time (completion
	// minus release), in ticks.
	MaxResponse timeunit.Ticks
}

// Result summarizes a simulation run.
type Result struct {
	// Horizon is the simulated duration.
	Horizon timeunit.Ticks
	// Released, Completed and Missed aggregate job counts over all tasks.
	Released  int
	Completed int
	Missed    int
	// Tasks maps task ID to its metrics.
	Tasks map[string]TaskMetrics
	// ContextSwitches, SchedInvocations and BudgetReplenishments count
	// scheduler activity across all cores (Table 2's rows).
	ContextSwitches      uint64
	SchedInvocations     uint64
	BudgetReplenishments uint64
	// ThrottleEvents and BWReplenishments count regulator activity
	// (Table 1's rows).
	ThrottleEvents   uint64
	BWReplenishments uint64
	// EngineSteps is the number of discrete events the underlying engine
	// executed — the denominator for events/sec throughput in the bench
	// harness.
	EngineSteps uint64
	// Overheads holds wall-clock handler cost summaries in microseconds,
	// keyed by the Ov* constants; only populated with MeasureOverheads.
	Overheads map[string]stats.Summary
	// CoreBusy is each core's busy fraction of the horizon.
	CoreBusy []float64
	// VCPUBusy is each VCPU's executed share of the horizon (its observed
	// bandwidth consumption), keyed by VCPU ID.
	VCPUBusy map[string]float64
	// Trace is the execution-slice trace (the RenderGantt input); only
	// populated with RecordTrace. It is a projection of Events.
	Trace []TraceEntry
	// Events is the full typed flight-recorder stream; only populated
	// with RecordTrace. Feed it to trace.Diagnose, trace.WriteChrome or
	// a JSONL writer. Streaming sinks passed via Config.Trace receive
	// the same events without this retained copy.
	Events []trace.Event
}

// TaskIDs returns the keys of Tasks in sorted order — the deterministic
// iteration order every report and rendering should use, so output is
// byte-identical run to run.
func (r *Result) TaskIDs() []string {
	ids := make([]string, 0, len(r.Tasks))
	for id := range r.Tasks { //vc2m:ordered keys are sorted below
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// vcpuRelease is the periodic-server replenishment: at each period
// boundary the VCPU's budget is reset to its full value and its deadline
// moves one period ahead. This is the "CPU budget replenishment" handler
// of Table 2.
func (s *Simulator) vcpuRelease(v *vcpuState) {
	core := s.cores[v.core]
	s.charge(core) // account the in-flight slice before mutating budgets
	s.measure(OvBudgetReplenish, func() {
		now := s.engine.Now()
		v.released = true
		v.remaining = v.budget
		v.deadline = now + v.period
		v.replenishments++
	})
	if s.sink != nil {
		s.sink.Record(trace.Event{
			Type: trace.EvVCPUReplenish, Time: s.engine.Now(),
			Core: v.core, VCPU: v.spec.ID,
			Budget: v.budget, Deadline: v.deadline,
		})
	}
	s.engine.After(v.period, sim.PrioReplenish, func() { s.vcpuRelease(v) })
	s.requestReschedule(core)
}

// taskRelease releases the task's next job. A job still unfinished at its
// implicit deadline (the next release) counts as a deadline miss and is
// discarded.
func (s *Simulator) taskRelease(t *taskState, v *vcpuState) {
	core := s.cores[v.core]
	s.charge(core)
	now := s.engine.Now()
	if t.active && t.remaining > 0 {
		t.missed++
		if s.sink != nil {
			s.sink.Record(trace.Event{
				Type: trace.EvDeadlineMiss, Time: now,
				Core: v.core, VCPU: v.spec.ID, Task: t.spec.ID,
				Deadline: t.deadline, Demand: t.remaining,
			})
		}
		if core.curTask == t {
			core.curTask = nil
		}
	}
	t.released++
	t.remaining = t.wcet
	t.deadline = now + t.period
	t.setActive(t.remaining > 0)
	if s.sink != nil {
		s.sink.Record(trace.Event{
			Type: trace.EvJobRelease, Time: now,
			Core: v.core, VCPU: v.spec.ID, Task: t.spec.ID,
			Deadline: t.deadline, Demand: t.wcet, WCET: t.declared,
		})
	}
	if !t.active {
		t.completed++ // zero-demand job completes instantly
		if s.sink != nil {
			s.sink.Record(trace.Event{
				Type: trace.EvJobComplete, Time: now,
				Core: v.core, VCPU: v.spec.ID, Task: t.spec.ID,
				Start: now, Deadline: t.deadline,
			})
		}
	}
	s.engine.After(t.period, sim.PrioRelease, func() { s.taskRelease(t, v) })
	s.requestReschedule(core)
}

// onThrottle is the BW enforcer handler (Fig. 1 step 3): invoked from the
// simulated PC-overflow interrupt, it marks the core throttled and asks
// the scheduler to de-schedule the running VCPU, leaving the core idle.
func (s *Simulator) onThrottle(coreID int) {
	core := s.cores[coreID]
	s.measure(OvThrottle, func() {
		core.throttled = true
		s.throttleEvents++
	})
	if s.sink != nil {
		ev := trace.Event{
			Type: trace.EvThrottle, Time: s.engine.Now(), Core: coreID,
		}
		if core.current != nil {
			ev.VCPU = core.current.spec.ID
			if core.curTask != nil {
				ev.Task = core.curTask.spec.ID
			}
		}
		s.sink.Record(ev)
	}
	s.requestReschedule(core)
}

// onBWReplenish is invoked by the regulator for each core during the
// periodic refill; previously throttled cores get a scheduling pass so a
// VCPU runs again (Fig. 1 step 4).
func (s *Simulator) onBWReplenish(coreID int, wasThrottled bool) {
	core := s.cores[coreID]
	core.throttled = false
	if s.sink != nil {
		s.sink.Record(trace.Event{
			Type: trace.EvBWReplenish, Time: s.engine.Now(),
			Core: coreID, Throttled: wasThrottled,
		})
	}
	if wasThrottled {
		s.requestReschedule(core)
	}
}

// regTick is the BW refiller timer handler (Table 1's "memory BW budget
// replenishment"): it replenishes every core's budget and re-arms itself.
func (s *Simulator) regTick() {
	for _, core := range s.cores {
		s.charge(core) // account in-flight requests before the refill
	}
	s.measure(OvBWReplenish, func() {
		s.reg.Replenish()
		s.regReplenishes++
	})
	s.engine.After(s.cfg.RegulationPeriod, sim.PrioRegulator, s.regTick)
}

// Run simulates the allocation for the given horizon and returns the
// aggregated result. Run may only be called once per Simulator; further
// calls panic (re-running would double-register every release event).
func (s *Simulator) Run(horizon timeunit.Ticks) *Result {
	if s.ran {
		panic("hypersim: Run called twice on the same Simulator")
	}
	s.ran = true
	sp := s.cfg.Span.Child(obs.StageHypersim)
	for _, v := range s.vcpus {
		v := v
		s.engine.At(v.offset, sim.PrioReplenish, func() { s.vcpuRelease(v) })
		for _, t := range v.tasks {
			t := t
			s.engine.At(t.offset, sim.PrioRelease, func() { s.taskRelease(t, v) })
		}
	}
	if s.reg != nil {
		s.engine.At(s.cfg.RegulationPeriod, sim.PrioRegulator, s.regTick)
	}

	s.engine.RunUntil(horizon)
	for _, core := range s.cores {
		s.charge(core)
	}

	res := &Result{
		Horizon:          horizon,
		Tasks:            make(map[string]TaskMetrics, len(s.tasks)),
		ThrottleEvents:   s.throttleEvents,
		BWReplenishments: s.regReplenishes,
		EngineSteps:      s.engine.Steps(),
		CoreBusy:         make([]float64, len(s.cores)),
	}
	if s.mem != nil {
		// The slice view consumed by RenderGantt is a projection of the
		// typed event stream, so both render the same execution.
		res.Events = s.mem.Events()
		res.Trace = SlicesFromEvents(res.Events)
	}
	for _, t := range s.tasks {
		res.Tasks[t.spec.ID] = TaskMetrics{
			Released:    t.released,
			Completed:   t.completed,
			Missed:      t.missed,
			MaxResponse: t.maxResp,
		}
		res.Released += t.released
		res.Completed += t.completed
		res.Missed += t.missed
	}
	for i, core := range s.cores {
		res.ContextSwitches += core.contextSwitches
		res.SchedInvocations += core.schedInvocations
		if horizon > 0 {
			res.CoreBusy[i] = timeunit.Ratio(core.busyTicks, horizon)
		}
	}
	res.VCPUBusy = make(map[string]float64, len(s.vcpus))
	for _, v := range s.vcpus {
		res.BudgetReplenishments += v.replenishments
		if horizon > 0 {
			res.VCPUBusy[v.spec.ID] = timeunit.Ratio(v.execTicks, horizon)
		}
	}
	if s.cfg.MeasureOverheads {
		res.Overheads = make(map[string]stats.Summary, len(s.overheads))
		for k, sample := range s.overheads { //vc2m:ordered map-to-map copy
			res.Overheads[k] = sample.Summary()
		}
	}
	if rec := s.cfg.Metrics; rec != nil {
		rec.Add(MetricContextSwitches, int64(res.ContextSwitches))
		rec.Add(MetricSchedInvocations, int64(res.SchedInvocations))
		rec.Add(MetricBudgetReplenish, int64(res.BudgetReplenishments))
		rec.Add(MetricThrottleEvents, int64(res.ThrottleEvents))
		rec.Add(MetricBWReplenish, int64(res.BWReplenishments))
		rec.Add(MetricJobsReleased, int64(res.Released))
		rec.Add(MetricJobsCompleted, int64(res.Completed))
		rec.Add(MetricDeadlineMisses, int64(res.Missed))
	}
	sp.SetInt("engine_steps", int64(res.EngineSteps))
	sp.SetInt("released", int64(res.Released))
	sp.SetInt("missed", int64(res.Missed))
	sp.End()
	return res
}
