// Package hypersim is a discrete-event simulator of the vC2M hypervisor
// design (Section 3): an RTDS-style partitioned-EDF scheduler with
// periodic-server VCPUs, task/VCPU release synchronization via a
// hypercall, well-regulated VCPU execution (harmonic periods, common
// release offset, deterministic EDF tie-breaking), and MemGuard-style
// memory-bandwidth regulation with a BW enforcer and a BW refiller.
//
// The paper's prototype modifies Xen 4.8 and runs on Intel hardware; this
// simulator substitutes for that path (see DESIGN.md). It is used three
// ways:
//
//   - to validate allocations end-to-end: an allocation the analysis calls
//     schedulable must produce zero deadline misses over the hyperperiod;
//   - to measure the scheduler and regulator handler costs that stand in
//     for the paper's Tables 1 and 2;
//   - to demonstrate the release-synchronization and regulation mechanisms
//     in the examples.
//
// Time is in integer microsecond ticks. Task execution demands are rounded
// down and VCPU budgets rounded up, so quantization can only make a
// workload easier than the analysis assumed — the simulator validates the
// analysis' guarantee ("jobs needing at most e(c,b) meet deadlines"), not
// the reverse direction.
package hypersim

import (
	"fmt"
	"time"

	"vc2m/internal/membus"
	"vc2m/internal/metrics"
	"vc2m/internal/model"
	"vc2m/internal/obs"
	"vc2m/internal/sim"
	"vc2m/internal/stats"
	"vc2m/internal/timeunit"
	"vc2m/internal/trace"
)

// Config parameterizes a simulation.
type Config struct {
	// RegulationPeriod enables memory-bandwidth regulation with the given
	// period (e.g. 1 ms) when positive.
	RegulationPeriod timeunit.Ticks
	// BWBudgets is the per-core bandwidth budget in memory requests per
	// regulation period; required when RegulationPeriod is set. A zero
	// entry disables regulation for that core.
	BWBudgets []int64
	// MemRate maps task IDs to memory request rates (requests per
	// millisecond of execution). Tasks without an entry issue no requests.
	// Only meaningful with regulation enabled.
	MemRate map[string]float64
	// MeasureOverheads records the wall-clock duration of every scheduler
	// and regulator handler invocation (the Tables 1-2 instrumentation).
	MeasureOverheads bool
	// RecordTrace keeps the per-core execution trace (used by tests that
	// verify the well-regulated execution pattern).
	RecordTrace bool
	// DesyncTasks gives every task the given release offset while leaving
	// VCPU releases at zero — deliberately breaking the release
	// synchronization of Theorem 1 to demonstrate its necessity. The
	// offset is per task index i: offset = DesyncTasks * (i+1). Kept
	// as the counter-case that shows Theorem 1's synchronization is needed.
	DesyncTasks timeunit.Ticks
	// ContextSwitchCost injects a per-context-switch overhead: whenever a
	// different VCPU takes the core, the first ContextSwitchCost ticks of
	// its slice drain budget without advancing the task — the intra-core
	// overhead that the analysis-side inflation (csa.Overheads) must
	// cover. Zero disables injection. Kept to check that [17]'s
	// overhead inflation covers the cost it models.
	ContextSwitchCost timeunit.Ticks
	// OverrunFactor injects WCET overruns: a task listed here demands
	// factor times its declared WCET per job (factor > 1 models a faulty
	// or mis-profiled task). The periodic-server architecture contains
	// the fault: an overrunning task exhausts its own VCPU's budget and
	// misses its own deadlines, but tasks on other VCPUs — even on the
	// same core — keep their guarantees. Kept to check that containment
	// in tests.
	OverrunFactor map[string]float64
	// Metrics, when non-nil, receives the run's aggregate event counters
	// (context switches, scheduler invocations, replenishments, throttle
	// events, deadline misses — see the Metric* constants) at the end of
	// Run. Nil disables recording at no cost.
	Metrics *metrics.Recorder
	// Trace, when non-nil, receives the typed flight-recorder event
	// stream: every job release/completion/miss, VCPU replenishment,
	// context switch, execution slice, throttle and BW replenishment,
	// stamped with tick time, core, VCPU and task. Nil disables emission
	// at no cost (one pointer check per site). RecordTrace composes with
	// it: the Result.Trace slice view is rebuilt from the same stream.
	Trace trace.Sink
	// Span, when non-nil, is the parent under which Run opens one
	// hypersim.run wall-clock span annotated with the run's volume
	// (engine steps, jobs, misses). Nil disables at no cost; spans never
	// influence the simulation result.
	Span *obs.Span
}

// Counter names recorded on Config.Metrics at the end of Run. They mirror
// the Result fields so that simulator activity lands in the same report as
// the allocators' search-effort counters.
const (
	MetricContextSwitches  = "hypersim.context_switches"
	MetricSchedInvocations = "hypersim.sched_invocations"
	MetricBudgetReplenish  = "hypersim.budget_replenishments"
	MetricThrottleEvents   = "hypersim.throttle_events"
	MetricBWReplenish      = "hypersim.bw_replenishments"
	MetricJobsReleased     = "hypersim.jobs_released"
	MetricJobsCompleted    = "hypersim.jobs_completed"
	MetricDeadlineMisses   = "hypersim.deadline_misses"
)

// taskState is a task's runtime state.
type taskState struct {
	spec     *model.Task
	index    int
	wcet     timeunit.Ticks // execution demand at the core's allocation
	declared timeunit.Ticks // declared WCET (wcet before overrun injection)
	period   timeunit.Ticks
	offset   timeunit.Ticks
	vcpu     *vcpuState

	deadline  timeunit.Ticks
	remaining timeunit.Ticks
	active    bool // set only through setActive

	released  int
	completed int
	missed    int
	maxResp   timeunit.Ticks
}

// setActive sets the task's active flag and keeps its VCPU's activeTasks
// count in step with it.
func (t *taskState) setActive(active bool) {
	if active == t.active {
		return
	}
	t.active = active
	if active {
		t.vcpu.activeTasks++
	} else {
		t.vcpu.activeTasks--
	}
}

// vcpuState is a VCPU's runtime state (a periodic server).
type vcpuState struct {
	spec   *model.VCPU
	core   int
	period timeunit.Ticks
	budget timeunit.Ticks // at the core's allocation
	offset timeunit.Ticks

	deadline  timeunit.Ticks
	remaining timeunit.Ticks
	released  bool

	tasks       []*taskState
	activeTasks int // tasks with an active job, kept by taskState.setActive

	replenishments uint64
	execTicks      timeunit.Ticks
}

// idleConsume reports whether the server consumes budget while no task is
// active: well-regulated VCPUs must (their execution pattern has to repeat
// every period), ordinary servers yield.
func (v *vcpuState) idleConsume() bool { return v.spec.WellRegulated }

// coreState is a physical core.
type coreState struct {
	id            int
	vcpus         []*vcpuState
	current       *vcpuState
	curTask       *taskState
	runStart      timeunit.Ticks
	sliceGen      uint64 // invalidates stale slice-end events
	throttled     bool
	needsResched  bool
	reqCarry      float64        // fractional memory requests carried across slices
	overheadUntil timeunit.Ticks // context-switch overhead window of the current slice

	contextSwitches  uint64
	schedInvocations uint64
	busyTicks        timeunit.Ticks
}

// TraceEntry records one execution slice for trace-based tests.
type TraceEntry struct {
	Core  int
	VCPU  string
	Task  string // empty for idle budget consumption
	Start timeunit.Ticks
	End   timeunit.Ticks
}

// Simulator runs one allocation on the simulated hypervisor.
type Simulator struct {
	cfg    Config
	engine sim.Engine
	cores  []*coreState
	vcpus  []*vcpuState
	tasks  []*taskState
	reg    *membus.Regulator

	// vcpuByID and taskByID resolve the public string IDs without a
	// linear scan; the first VCPU/task with a given ID wins, matching
	// the scan order the lookups replaced.
	vcpuByID map[string]*vcpuState
	taskByID map[string]*taskState

	// sink receives the typed event stream (nil when tracing is off);
	// mem is the internal memory sink backing Result.Trace when
	// Config.RecordTrace is set, and feeds into sink.
	sink trace.Sink
	mem  *trace.Memory

	// overhead samples, keyed like the paper's tables
	overheads map[string]*stats.Sample

	throttleEvents uint64
	regReplenishes uint64
	ran            bool
}

// overhead sample keys.
const (
	OvThrottle        = "bw-throttle"
	OvBWReplenish     = "bw-replenish"
	OvBudgetReplenish = "cpu-budget-replenish"
	OvSchedule        = "scheduling"
	OvContextSwitch   = "context-switch"
)

// New builds a simulator for a schedulable allocation. Task WCETs and VCPU
// budgets are taken at each core's (cache, BW) allocation.
func New(alloc *model.Allocation, cfg Config) (*Simulator, error) {
	if alloc == nil {
		return nil, fmt.Errorf("hypersim: nil allocation")
	}
	// Structural validation only: simulating an overloaded allocation and
	// observing its deadline misses is a legitimate use.
	if err := alloc.ValidateStructure(nil); err != nil {
		return nil, fmt.Errorf("hypersim: invalid allocation: %w", err)
	}
	if cfg.RegulationPeriod > 0 && len(cfg.BWBudgets) < len(alloc.Cores) {
		return nil, fmt.Errorf("hypersim: %d BW budgets for %d cores", len(cfg.BWBudgets), len(alloc.Cores))
	}

	s := &Simulator{cfg: cfg, overheads: map[string]*stats.Sample{
		OvThrottle:        {},
		OvBWReplenish:     {},
		OvBudgetReplenish: {},
		OvSchedule:        {},
		OvContextSwitch:   {},
	},
		vcpuByID: make(map[string]*vcpuState),
		taskByID: make(map[string]*taskState),
	}
	s.sink = cfg.Trace
	if cfg.RecordTrace {
		s.mem = trace.NewMemory()
		s.sink = trace.Multi(s.mem, cfg.Trace)
	}

	taskIdx := 0
	for _, ca := range alloc.Cores {
		// Cores are indexed by their position in the allocation; the
		// regulator and BWBudgets use the same positional index.
		core := &coreState{id: len(s.cores)}
		for _, v := range ca.VCPUs {
			budgetMs := v.Budget.At(ca.Cache, ca.BW)
			vs := &vcpuState{
				spec:   v,
				core:   len(s.cores),
				period: timeunit.FromMillis(v.Period),
				budget: timeunit.FromMillisCeil(budgetMs),
			}
			if _, ok := s.vcpuByID[v.ID]; !ok {
				s.vcpuByID[v.ID] = vs
			}
			if vs.period <= 0 {
				return nil, fmt.Errorf("hypersim: VCPU %s period below tick resolution", v.ID)
			}
			for _, task := range v.Tasks {
				demand := task.WCET.At(ca.Cache, ca.BW)
				declared := demand
				if f, ok := cfg.OverrunFactor[task.ID]; ok && f > 0 {
					demand *= f
				}
				ts := &taskState{
					spec:     task,
					index:    taskIdx,
					wcet:     timeunit.FromMillisFloor(demand),
					declared: timeunit.FromMillisFloor(declared),
					period:   timeunit.FromMillis(task.Period),
					vcpu:     vs,
				}
				if _, ok := s.taskByID[task.ID]; !ok {
					s.taskByID[task.ID] = ts
				}
				if cfg.DesyncTasks > 0 {
					ts.offset = cfg.DesyncTasks * timeunit.Ticks(taskIdx+1)
				}
				taskIdx++
				vs.tasks = append(vs.tasks, ts)
				s.tasks = append(s.tasks, ts)
			}
			if v.SyncedRelease && len(vs.tasks) == 1 {
				// Theorem 1: the VCPU's release follows its task's (the
				// release-synchronization hypercall).
				vs.offset = vs.tasks[0].offset
			}
			core.vcpus = append(core.vcpus, vs)
			s.vcpus = append(s.vcpus, vs)
		}
		s.cores = append(s.cores, core)
	}

	if cfg.RegulationPeriod > 0 {
		reg, err := membus.New(membus.Config{
			Period:  cfg.RegulationPeriod,
			Budgets: cfg.BWBudgets[:len(s.cores)],
		})
		if err != nil {
			return nil, err
		}
		s.reg = reg
		reg.OnThrottle = s.onThrottle
		reg.OnReplenish = s.onBWReplenish
	}
	return s, nil
}

// SyncRelease is the release-synchronization hypercall (Section 3.2): it
// sets the VCPU's next release to now + delay, as the modified RTDS
// scheduler does when the guest passes the task's first-release delay L.
func (s *Simulator) SyncRelease(vcpuID string, delay timeunit.Ticks) error {
	if v, ok := s.vcpuByID[vcpuID]; ok {
		v.offset = s.engine.Now() + delay
		return nil
	}
	return fmt.Errorf("hypersim: unknown VCPU %q", vcpuID)
}

// measure wraps a handler invocation, recording its wall-clock cost in
// microseconds when overhead measurement is enabled.
func (s *Simulator) measure(key string, fn func()) {
	if !s.cfg.MeasureOverheads {
		fn()
		return
	}
	start := time.Now() //vc2m:wallclock overhead measurement is wall time by design
	fn()
	s.overheads[key].Add(float64(time.Since(start).Nanoseconds()) / 1000.0) //vc2m:wallclock
}
