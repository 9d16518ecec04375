package hypersim

import (
	"math"

	"vc2m/internal/sim"
	"vc2m/internal/timeunit"
	"vc2m/internal/trace"
)

// charge accounts the elapsed execution of the core's current slice: it
// debits the running VCPU's budget and task's remaining demand, issues the
// slice's memory requests to the regulator, detects task completion, and
// records the trace entry. It is safe to call repeatedly; after charging,
// the slice restarts from the current instant.
func (s *Simulator) charge(core *coreState) {
	now := s.engine.Now()
	elapsed := now - core.runStart
	v := core.current
	if v == nil || elapsed <= 0 {
		core.runStart = now
		return
	}
	v.remaining -= elapsed
	if v.remaining < 0 {
		v.remaining = 0
	}
	v.execTicks += elapsed
	core.busyTicks += elapsed

	// Context-switch overhead drains budget without advancing the task.
	taskElapsed := elapsed
	if core.overheadUntil > core.runStart {
		ovh := core.overheadUntil - core.runStart
		if ovh > elapsed {
			ovh = elapsed
		}
		taskElapsed -= ovh
	}

	task := core.curTask
	if s.sink != nil {
		name := ""
		if task != nil {
			name = task.spec.ID
		}
		s.sink.Record(trace.Event{
			Type: trace.EvExecSlice, Time: now, Core: core.id,
			VCPU: v.spec.ID, Task: name,
			Start: core.runStart, Budget: v.remaining,
		})
	}

	if task != nil && taskElapsed > 0 {
		task.remaining -= taskElapsed
		if s.reg != nil {
			if rate := s.cfg.MemRate[task.spec.ID]; rate > 0 {
				perTick := rate / float64(timeunit.TicksPerMilli)
				// The explicit conversion rounds the product, so that no
				// compiler fuses it into the addition.
				exact := float64(taskElapsed.Count()*perTick) + core.reqCarry
				whole := math.Floor(exact)
				core.reqCarry = exact - whole
				s.reg.RequestN(core.id, int64(whole))
			}
		}
		if task.remaining <= 0 {
			s.completeTask(task)
			core.curTask = nil
		}
	}
	core.runStart = now
}

// completeTask marks the current job finished.
func (s *Simulator) completeTask(task *taskState) {
	task.remaining = 0
	task.setActive(false)
	task.completed++
	now := s.engine.Now()
	// Response time relative to the job's release (deadline - period for
	// implicit-deadline tasks). Release desynchronization shows up here as
	// an inflated worst-case response — the abstraction overhead the
	// synchronization hypercall removes.
	resp := now - (task.deadline - task.period)
	if resp > task.maxResp {
		task.maxResp = resp
	}
	if s.sink != nil {
		s.sink.Record(trace.Event{
			Type: trace.EvJobComplete, Time: now,
			Core: task.vcpu.core, VCPU: task.vcpu.spec.ID, Task: task.spec.ID,
			Start: task.deadline - task.period, Deadline: task.deadline,
		})
	}
}

// requestReschedule queues a scheduling pass for the core at the current
// instant, after all simultaneous releases and replenishments have been
// processed (sim.PrioSchedule orders it last). Repeated requests coalesce,
// matching a real scheduler that handles one interrupt batch with one
// scheduling decision.
func (s *Simulator) requestReschedule(core *coreState) {
	if core.needsResched {
		return
	}
	core.needsResched = true
	s.engine.At(s.engine.Now(), sim.PrioSchedule, func() {
		core.needsResched = false
		s.doSchedule(core)
	})
}

// doSchedule is the core-local scheduling pass of the modified RTDS
// scheduler: charge the outgoing slice, pick the next VCPU by EDF with the
// deterministic tie-breaking rule (earliest deadline, then smaller period,
// then smaller VCPU index), pick its task by EDF, and start the slice.
// Throttled cores run nothing until the BW refiller reinstates them.
func (s *Simulator) doSchedule(core *coreState) {
	s.charge(core)

	var next *vcpuState
	var nextTask *taskState
	s.measure(OvSchedule, func() {
		core.schedInvocations++
		if !core.throttled {
			next = pickVCPU(core)
			if next != nil {
				nextTask = pickTask(next)
			}
		}
	})

	prev := core.current
	switched := next != prev
	if switched {
		s.measure(OvContextSwitch, func() {
			core.contextSwitches++
			// A real context switch saves and restores VCPU state; the
			// bookkeeping below is this simulator's equivalent.
			core.current = next
		})
		if s.sink != nil {
			ev := trace.Event{
				Type: trace.EvContextSwitch,
				Time: s.engine.Now(), Core: core.id,
			}
			if next != nil {
				ev.VCPU = next.spec.ID
				if nextTask != nil {
					ev.Task = nextTask.spec.ID
				}
			}
			if prev != nil {
				ev.From = prev.spec.ID
			}
			s.sink.Record(ev)
		}
	} else {
		core.current = next
	}
	core.curTask = nextTask
	core.runStart = s.engine.Now()
	core.sliceGen++
	core.overheadUntil = core.runStart

	if next == nil {
		return
	}

	// Injected context-switch overhead: the slice's first ticks drain
	// budget without task progress (see Config.ContextSwitchCost).
	var overhead timeunit.Ticks
	if switched && s.cfg.ContextSwitchCost > 0 {
		overhead = s.cfg.ContextSwitchCost
		if overhead > next.remaining {
			overhead = next.remaining
		}
		core.overheadUntil = core.runStart + overhead
	}

	dur := next.remaining
	if nextTask != nil && overhead+nextTask.remaining < dur {
		dur = overhead + nextTask.remaining
	}
	if d := s.ticksUntilThrottle(core, nextTask); d >= 0 && overhead+d < dur {
		dur = overhead + d
	}
	if dur <= 0 {
		dur = 1 // defensive: always make progress
	}
	gen := core.sliceGen
	s.engine.After(dur, sim.PrioDefault, func() {
		if core.sliceGen == gen {
			s.sliceEnd(core)
		}
	})
}

// ticksUntilThrottle bounds the slice by the instant the core's memory
// request budget will overflow, or -1 when regulation does not bound it.
func (s *Simulator) ticksUntilThrottle(core *coreState, task *taskState) timeunit.Ticks {
	if s.reg == nil || task == nil {
		return -1
	}
	rate := s.cfg.MemRate[task.spec.ID]
	if rate <= 0 {
		return -1
	}
	left := s.reg.Remaining(core.id)
	if s.cfg.BWBudgets[core.id] == 0 {
		return -1
	}
	perTick := rate / float64(timeunit.TicksPerMilli)
	d := timeunit.FromCount(math.Ceil((float64(left) - core.reqCarry) / perTick))
	if d < 1 {
		d = 1
	}
	return d
}

// sliceEnd fires when the running slice exhausts its bound (task
// completion, budget exhaustion, or throttle instant).
func (s *Simulator) sliceEnd(core *coreState) {
	s.requestReschedule(core)
}

// pickVCPU returns the EDF-minimal runnable VCPU on the core: released,
// with budget remaining, and either holding an active task or required to
// consume budget while idle (well-regulated servers). Ties break first by
// smaller period, then by smaller VCPU index — the deterministic rule that
// makes well-regulated execution reproducible (Section 3.2). A core holds
// a few dozen VCPUs at most in every experiment, where a scan over them is
// as fast as a ready queue; activeTasks spares it a walk over each VCPU's
// tasks.
func pickVCPU(core *coreState) *vcpuState {
	var best *vcpuState
	for _, v := range core.vcpus {
		if !v.released || v.remaining <= 0 {
			continue
		}
		if !v.idleConsume() && v.activeTasks == 0 {
			continue
		}
		if best == nil || vcpuLess(v, best) {
			best = v
		}
	}
	return best
}

// vcpuLess is the EDF order with vC2M's deterministic tie-breaking.
func vcpuLess(a, b *vcpuState) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	if a.period != b.period {
		return a.period < b.period
	}
	return a.spec.Index < b.spec.Index
}

// taskLess is the guest-EDF order: earliest deadline, ties by task index.
func taskLess(a, b *taskState) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	return a.index < b.index
}

// pickTask returns the EDF-minimal active task on the VCPU (the guest OS
// also schedules under EDF), breaking ties by task index.
func pickTask(v *vcpuState) *taskState {
	var best *taskState
	for _, t := range v.tasks {
		if !t.active {
			continue
		}
		if best == nil || taskLess(t, best) {
			best = t
		}
	}
	return best
}
