package hypersim

import (
	"math"
	"testing"

	"vc2m/internal/csa"
	"vc2m/internal/model"
	"vc2m/internal/sim"
	"vc2m/internal/timeunit"
)

// regAlloc builds a one-core allocation with a single flattened task.
func regAlloc(t *testing.T, period, wcet float64) *model.Allocation {
	t.Helper()
	p := model.PlatformA
	task := model.SimpleTask("memtask", p, period, wcet)
	task.VM = "vm"
	return &model.Allocation{
		Platform: p,
		Cores: []*model.CoreAlloc{
			{Core: 0, Cache: 10, BW: 10, VCPUs: []*model.VCPU{csa.FlattenVCPU(task, 0)}},
		},
		Schedulable: true,
	}
}

func TestRegulationThrottlesHungryCore(t *testing.T) {
	// Task issues 1000 requests/ms; the budget allows 500 per 1 ms period:
	// the core must throttle every period and spend half its time idle.
	a := regAlloc(t, 10, 9)
	s, err := New(a, Config{
		RegulationPeriod: timeunit.FromMillis(1),
		BWBudgets:        []int64{500},
		MemRate:          map[string]float64{"memtask": 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(timeunit.FromMillis(100))
	if res.ThrottleEvents == 0 {
		t.Fatal("no throttle events for a bandwidth-hungry task")
	}
	// ~100 regulation periods; the task is active 90% of the time, so
	// most periods throttle.
	if res.ThrottleEvents < 50 {
		t.Errorf("throttle events = %d, want most of ~100 periods", res.ThrottleEvents)
	}
	if res.BWReplenishments < 99 {
		t.Errorf("BW replenishments = %d, want ~100", res.BWReplenishments)
	}
	// Throttled half the time: the 0.9-utilization task can only get
	// ~0.5 and must miss deadlines.
	if res.Missed == 0 {
		t.Error("a task needing 0.9 CPU under a 0.5-effective-bandwidth cap should miss")
	}
}

func TestRegulationHarmlessWithinBudget(t *testing.T) {
	// Same task, generous budget: no throttling, no misses.
	a := regAlloc(t, 10, 9)
	s, err := New(a, Config{
		RegulationPeriod: timeunit.FromMillis(1),
		BWBudgets:        []int64{2000},
		MemRate:          map[string]float64{"memtask": 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(timeunit.FromMillis(100))
	if res.ThrottleEvents != 0 {
		t.Errorf("throttle events = %d, want 0 within budget", res.ThrottleEvents)
	}
	if res.Missed != 0 {
		t.Errorf("misses = %d, want 0", res.Missed)
	}
}

func TestRegulationBudgetNeverExceeded(t *testing.T) {
	// The regulator's contract on top of the scheduler: granted requests
	// per period never exceed the budget. With rate 800/ms and budget 300,
	// every 1 ms period grants at most 300.
	a := regAlloc(t, 10, 8)
	s, err := New(a, Config{
		RegulationPeriod: timeunit.FromMillis(1),
		BWBudgets:        []int64{300},
		MemRate:          map[string]float64{"memtask": 800},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(timeunit.FromMillis(50))
	granted := s.reg.Stats(0).Requests
	// 50 periods, at most 300 each.
	if granted > 50*300+300 {
		t.Errorf("granted %d requests, budget allows at most %d", granted, 50*300+300)
	}
	if s.reg.Stats(0).DeniedRequests != 0 {
		t.Errorf("denied requests = %d: scheduler ran a throttled core",
			s.reg.Stats(0).DeniedRequests)
	}
	if res.ThrottleEvents == 0 {
		t.Error("expected throttling")
	}
}

func TestThrottledCoreStaysIdle(t *testing.T) {
	// vC2M keeps throttled cores idle (unlike MemGuard's busy-wait): core
	// busy fraction must drop to roughly the throttle-bounded share.
	a := regAlloc(t, 10, 10) // wants 100% CPU
	s, err := New(a, Config{
		RegulationPeriod: timeunit.FromMillis(1),
		BWBudgets:        []int64{250},
		MemRate:          map[string]float64{"memtask": 1000}, // throttles at 0.25 ms
	})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(timeunit.FromMillis(100))
	if res.CoreBusy[0] > 0.35 {
		t.Errorf("core busy = %v, want ~0.25 (idle while throttled)", res.CoreBusy[0])
	}
}

func TestPerCoreBudgetsIndependent(t *testing.T) {
	// Two regulated cores with different budgets: each is throttled
	// according to its own budget only.
	p := model.PlatformA
	mkTask := func(id string) *model.Task {
		task := model.SimpleTask(id, p, 10, 8)
		task.VM = "vm"
		return task
	}
	a := &model.Allocation{
		Platform: p,
		Cores: []*model.CoreAlloc{
			{Core: 0, Cache: 5, BW: 5, VCPUs: []*model.VCPU{csa.FlattenVCPU(mkTask("tight"), 0)}},
			{Core: 1, Cache: 5, BW: 5, VCPUs: []*model.VCPU{csa.FlattenVCPU(mkTask("loose"), 1)}},
		},
		Schedulable: true,
	}
	s, err := New(a, Config{
		RegulationPeriod: timeunit.FromMillis(1),
		BWBudgets:        []int64{200, 5000},
		MemRate:          map[string]float64{"tight": 1000, "loose": 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(timeunit.FromMillis(100))
	if res.Tasks["tight"].Missed == 0 {
		t.Error("tight-budget core should miss deadlines")
	}
	if res.Tasks["loose"].Missed != 0 {
		t.Errorf("loose-budget core missed %d deadlines; budgets leaked across cores",
			res.Tasks["loose"].Missed)
	}
	if res.CoreBusy[0] >= res.CoreBusy[1] {
		t.Errorf("tight core busy %v should be below loose core %v",
			res.CoreBusy[0], res.CoreBusy[1])
	}
}

func TestOverheadMeasurement(t *testing.T) {
	a := regAlloc(t, 10, 5)
	s, err := New(a, Config{
		RegulationPeriod: timeunit.FromMillis(1),
		BWBudgets:        []int64{300},
		MemRate:          map[string]float64{"memtask": 1000},
		MeasureOverheads: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(timeunit.FromMillis(100))
	for _, key := range []string{OvThrottle, OvBWReplenish, OvBudgetReplenish, OvSchedule, OvContextSwitch} {
		sum, ok := res.Overheads[key]
		if !ok {
			t.Fatalf("missing overhead sample %q", key)
		}
		if sum.N() == 0 {
			t.Errorf("overhead %q recorded no samples", key)
		}
		if sum.Min() < 0 {
			t.Errorf("overhead %q has negative duration", key)
		}
	}
}

func TestOverheadsAbsentWithoutMeasurement(t *testing.T) {
	a := regAlloc(t, 10, 5)
	s, err := New(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res := s.Run(timeunit.FromMillis(10)); res.Overheads != nil {
		t.Error("overheads populated without MeasureOverheads")
	}
}

// TestChargeRoundsRequestProduct pins charge's request accounting at an
// input, found by search, where a fused multiply-add of the slice's
// requests and the carried fraction changes the last bit: 19 ticks at 30
// requests/ms with 0.5 carried gives 1.0699999999999998 requests rounded
// (one request issued, the rest carried) but 1.07 fused. The
// explicit conversion rounds the product, so the carry, and with it every
// later throttle instant, does not depend on whether a compiler fuses the
// two, as arm64's may.
func TestChargeRoundsRequestProduct(t *testing.T) {
	s, err := New(regAlloc(t, 10, 2), Config{
		RegulationPeriod: timeunit.FromMillis(1),
		BWBudgets:        []int64{1000},
		MemRate:          map[string]float64{"memtask": 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	core, v, task := s.cores[0], s.vcpus[0], s.tasks[0]
	v.remaining, task.remaining = 1000, 1000
	core.current, core.curTask, core.reqCarry = v, task, 0.5
	s.engine.At(19, sim.PrioDefault, func() { s.charge(core) })
	s.engine.RunUntil(19)
	if got := math.Float64bits(core.reqCarry); got != 0x3fb1eb851eb851e0 { // fused: ...51f0
		t.Errorf("carried requests bits %#x, want 0x3fb1eb851eb851e0", got)
	}
	if got := s.reg.Stats(0).Requests; got != 1 {
		t.Errorf("requests issued %d, want 1", got)
	}
}
