package hypersim

import (
	"cmp"
	"slices"
	"testing"

	"vc2m/internal/csa"
	"vc2m/internal/model"
	"vc2m/internal/timeunit"
)

// flatAlloc builds a one-core allocation with flattened VCPUs for the
// given (period, wcet) pairs in ms.
func flatAlloc(t *testing.T, p model.Platform, cache, bw int, tasks ...[2]float64) *model.Allocation {
	t.Helper()
	var vcpus []*model.VCPU
	for i, pe := range tasks {
		task := model.SimpleTask(taskName(i), p, pe[0], pe[1])
		task.VM = "vm"
		vcpus = append(vcpus, csa.FlattenVCPU(task, i))
	}
	return &model.Allocation{
		Platform:    p,
		Cores:       []*model.CoreAlloc{{Core: 0, Cache: cache, BW: bw, VCPUs: vcpus}},
		Schedulable: true,
	}
}

func taskName(i int) string { return string(rune('a'+i)) + "-task" }

// sortedKeys returns m's keys in ascending order, so map-driven assertions
// check and report in the same order on every run.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m { //vc2m:ordered keys are sorted below
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func run(t *testing.T, a *model.Allocation, cfg Config, ms float64) *Result {
	t.Helper()
	s, err := New(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s.Run(timeunit.FromMillis(ms))
}

func TestSingleTaskMeetsDeadlines(t *testing.T) {
	a := flatAlloc(t, model.PlatformA, 10, 10, [2]float64{10, 1})
	res := run(t, a, Config{}, 1000)
	if res.Missed != 0 {
		t.Errorf("misses = %d, want 0", res.Missed)
	}
	tm := res.Tasks[taskName(0)]
	if tm.Released < 100 || tm.Released > 101 {
		t.Errorf("released = %d, want 100-101 (horizon/period, boundary release included)", tm.Released)
	}
	if tm.Completed < 99 {
		t.Errorf("completed = %d, want >= 99", tm.Completed)
	}
	if tm.MaxResponse != timeunit.FromMillis(1) {
		t.Errorf("max response = %v, want 1ms (runs immediately)", tm.MaxResponse)
	}
}

func TestFullUtilizationEDF(t *testing.T) {
	// Two tasks with total utilization exactly 1 are EDF-schedulable on
	// one core; the flattened VCPUs must deliver that.
	a := flatAlloc(t, model.PlatformA, 10, 10, [2]float64{10, 5}, [2]float64{20, 10})
	res := run(t, a, Config{}, 2000)
	if res.Missed != 0 {
		t.Errorf("misses = %d, want 0 at utilization 1.0", res.Missed)
	}
	busy := res.CoreBusy[0]
	if busy < 0.99 {
		t.Errorf("core busy fraction = %v, want ~1.0", busy)
	}
}

func TestOverloadMissesDeadlines(t *testing.T) {
	// Utilization 1.2: someone must miss.
	a := flatAlloc(t, model.PlatformA, 10, 10, [2]float64{10, 6}, [2]float64{10, 6})
	res := run(t, a, Config{}, 1000)
	if res.Missed == 0 {
		t.Error("overloaded core produced no deadline misses")
	}
}

func TestMultiCoreIndependence(t *testing.T) {
	p := model.PlatformA
	t1 := model.SimpleTask("t1", p, 10, 9)
	t1.VM = "vm"
	t2 := model.SimpleTask("t2", p, 10, 9)
	t2.VM = "vm"
	a := &model.Allocation{
		Platform: p,
		Cores: []*model.CoreAlloc{
			{Core: 0, Cache: 5, BW: 5, VCPUs: []*model.VCPU{csa.FlattenVCPU(t1, 0)}},
			{Core: 1, Cache: 5, BW: 5, VCPUs: []*model.VCPU{csa.FlattenVCPU(t2, 1)}},
		},
		Schedulable: true,
	}
	res := run(t, a, Config{}, 1000)
	if res.Missed != 0 {
		t.Errorf("misses = %d, want 0 (each core runs one 0.9-utilization task)", res.Missed)
	}
}

func TestWellRegulatedTheorem2(t *testing.T) {
	// A harmonic taskset on a well-regulated VCPU with bandwidth equal to
	// the taskset utilization must meet all deadlines (Theorem 2).
	p := model.PlatformA
	mk := func(id string, period, wcet float64) *model.Task {
		task := model.SimpleTask(id, p, period, wcet)
		task.VM = "vm"
		return task
	}
	tasks := []*model.Task{mk("t1", 10, 2), mk("t2", 20, 4), mk("t3", 40, 8)}
	// Utilization 0.2 + 0.2 + 0.2 = 0.6; VCPU (10, 6).
	v, err := csa.WellRegulatedVCPU(tasks, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A competing well-regulated VCPU takes the rest of the core.
	other := model.SimpleTask("other", p, 10, 4)
	other.VM = "vm2"
	v2, err := csa.WellRegulatedVCPU([]*model.Task{other}, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := &model.Allocation{
		Platform:    p,
		Cores:       []*model.CoreAlloc{{Core: 0, Cache: 10, BW: 10, VCPUs: []*model.VCPU{v, v2}}},
		Schedulable: true,
	}
	res := run(t, a, Config{}, 4000)
	if res.Missed != 0 {
		t.Errorf("misses = %d, want 0 under Theorem 2", res.Missed)
	}
}

func TestWellRegulatedPatternRepeats(t *testing.T) {
	// The defining property of a well-regulated VCPU: it executes at time
	// t iff it executes at t + k*Pi. Check the trace over several periods.
	p := model.PlatformA
	t1 := model.SimpleTask("t1", p, 10, 3)
	t1.VM = "vm"
	t2 := model.SimpleTask("t2", p, 20, 8)
	t2.VM = "vm2"
	v1, err := csa.WellRegulatedVCPU([]*model.Task{t1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := csa.WellRegulatedVCPU([]*model.Task{t2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := &model.Allocation{
		Platform:    p,
		Cores:       []*model.CoreAlloc{{Core: 0, Cache: 10, BW: 10, VCPUs: []*model.VCPU{v1, v2}}},
		Schedulable: true,
	}
	s, err := New(a, Config{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(timeunit.FromMillis(400))

	// Build v1's execution pattern per 10ms period, as a set of intervals
	// relative to the period start, and verify all periods agree (skip
	// the first two periods of transient).
	period := timeunit.FromMillis(10)
	patterns := map[int64][][2]timeunit.Ticks{}
	for _, e := range res.Trace {
		if e.VCPU != v1.ID {
			continue
		}
		k := int64(e.Start / period)
		if int64(e.End/period) != k && e.End%period != 0 {
			t.Fatalf("slice %v-%v crosses a period boundary", e.Start, e.End)
		}
		patterns[k] = append(patterns[k], [2]timeunit.Ticks{e.Start % period, e.Start%period + (e.End - e.Start)})
	}
	var ref [][2]timeunit.Ticks
	for k := int64(2); k < 38; k++ {
		pat := merge(patterns[k])
		if ref == nil {
			ref = pat
			continue
		}
		if len(pat) != len(ref) {
			t.Fatalf("period %d pattern %v differs from reference %v", k, pat, ref)
		}
		for i := range pat {
			if pat[i] != ref[i] {
				t.Fatalf("period %d pattern %v differs from reference %v", k, pat, ref)
			}
		}
	}
	if res.Missed != 0 {
		t.Errorf("misses = %d, want 0", res.Missed)
	}
}

// merge coalesces adjacent trace intervals.
func merge(in [][2]timeunit.Ticks) [][2]timeunit.Ticks {
	var out [][2]timeunit.Ticks
	for _, iv := range in {
		if n := len(out); n > 0 && out[n-1][1] == iv[0] {
			out[n-1][1] = iv[1]
			continue
		}
		out = append(out, iv)
	}
	return out
}

func TestDeterministicTieBreaking(t *testing.T) {
	// Two identical VCPUs with equal deadlines and periods: the one with
	// the smaller index must run first, every time.
	p := model.PlatformA
	t1 := model.SimpleTask("t1", p, 10, 3)
	t1.VM = "vm"
	t2 := model.SimpleTask("t2", p, 10, 3)
	t2.VM = "vm"
	v1, _ := csa.WellRegulatedVCPU([]*model.Task{t1}, 0)
	v2, _ := csa.WellRegulatedVCPU([]*model.Task{t2}, 1)
	a := &model.Allocation{
		Platform:    p,
		Cores:       []*model.CoreAlloc{{Core: 0, Cache: 10, BW: 10, VCPUs: []*model.VCPU{v2, v1}}},
		Schedulable: true,
	}
	s, err := New(a, Config{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(timeunit.FromMillis(100))
	period := timeunit.FromMillis(10)
	for _, e := range res.Trace {
		rel := e.Start % period
		switch e.VCPU {
		case v1.ID:
			if rel >= timeunit.FromMillis(3) {
				t.Fatalf("lower-index VCPU ran at offset %v, want [0,3ms)", rel)
			}
		case v2.ID:
			if rel < timeunit.FromMillis(3) {
				t.Fatalf("higher-index VCPU ran at offset %v, want [3ms,6ms)", rel)
			}
		}
	}
}

func TestSyncReleaseHypercall(t *testing.T) {
	a := flatAlloc(t, model.PlatformA, 10, 10, [2]float64{10, 1})
	s, err := New(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SyncRelease(a.Cores[0].VCPUs[0].ID, timeunit.FromMillis(5)); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncRelease("nope", 0); err == nil {
		t.Error("unknown VCPU accepted")
	}
	res := s.Run(timeunit.FromMillis(100))
	// VCPU released at 5ms: 10 periods fit in [5, 100].
	if got := res.BudgetReplenishments; got < 9 || got > 11 {
		t.Errorf("replenishments = %d, want ~10 after delayed release", got)
	}
}

func TestDesyncInflatesResponseTime(t *testing.T) {
	// A task on a well-regulated VCPU whose release is synchronized with
	// the VCPU's executes within one budget slot: response = WCET. If the
	// task's release drifts from the VCPU's (no synchronization
	// hypercall), it arrives mid-slot, loses part of the budget to idle
	// consumption, and must wait for the next period's slot — exactly the
	// "wait until the VCPU's budget is replenished" overhead described in
	// Section 3.2.
	mkRes := func(desync timeunit.Ticks) *Result {
		p := model.PlatformA
		task := model.SimpleTask("t1", p, 10, 5)
		task.VM = "vm"
		v, err := csa.WellRegulatedVCPU([]*model.Task{task}, 0)
		if err != nil {
			t.Fatal(err)
		}
		a := &model.Allocation{
			Platform:    p,
			Cores:       []*model.CoreAlloc{{Core: 0, Cache: 10, BW: 10, VCPUs: []*model.VCPU{v}}},
			Schedulable: true,
		}
		s, err := New(a, Config{DesyncTasks: desync})
		if err != nil {
			t.Fatal(err)
		}
		return s.Run(timeunit.FromMillis(1000))
	}
	synced := mkRes(0)
	if synced.Missed != 0 {
		t.Fatalf("synced run missed %d deadlines, want 0", synced.Missed)
	}
	sResp := synced.Tasks["t1"].MaxResponse
	if sResp != timeunit.FromMillis(5) {
		t.Errorf("synchronized response = %v, want 5ms (the WCET)", sResp)
	}
	desynced := mkRes(timeunit.FromMillis(3))
	dResp := desynced.Tasks["t1"].MaxResponse
	if dResp <= sResp {
		t.Errorf("desynchronized response %v not above synchronized %v", dResp, sResp)
	}
}

func TestBudgetReplenishmentCount(t *testing.T) {
	a := flatAlloc(t, model.PlatformA, 10, 10, [2]float64{10, 1})
	res := run(t, a, Config{}, 1000)
	// Releases at 0, 10, ..., 1000.
	if res.BudgetReplenishments < 100 || res.BudgetReplenishments > 101 {
		t.Errorf("replenishments = %d, want ~100", res.BudgetReplenishments)
	}
}

func TestRunTwicePanics(t *testing.T) {
	a := flatAlloc(t, model.PlatformA, 10, 10, [2]float64{10, 1})
	s, err := New(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(timeunit.FromMillis(10))
	defer func() {
		if recover() == nil {
			t.Error("second Run did not panic")
		}
	}()
	s.Run(timeunit.FromMillis(10))
}

func TestNewRejectsInvalidInput(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil allocation accepted")
	}
	bad := &model.Allocation{
		Platform: model.PlatformA,
		Cores:    []*model.CoreAlloc{{Core: 0, Cache: 1, BW: 1}}, // cache below Cmin
	}
	if _, err := New(bad, Config{}); err == nil {
		t.Error("invalid allocation accepted")
	}
	good := flatAlloc(t, model.PlatformA, 10, 10, [2]float64{10, 1})
	if _, err := New(good, Config{RegulationPeriod: 1000}); err == nil {
		t.Error("regulation without budgets accepted")
	}
}

func TestBudgetsAtCoreAllocation(t *testing.T) {
	// The simulator must take WCET/budget at the core's (cache, BW), not
	// the reference: a resource-sensitive task on a starved core overruns
	// a schedule that would work at full allocation.
	p := model.PlatformA
	task := &model.Task{ID: "t", VM: "vm", Period: 10,
		WCET: model.FuncTable(p, func(c, b int) float64 {
			if c >= 10 {
				return 4
			}
			return 12 // exceeds the period on a starved core
		})}
	v := csa.FlattenVCPU(task, 0)
	starved := &model.Allocation{
		Platform:    p,
		Cores:       []*model.CoreAlloc{{Core: 0, Cache: 2, BW: 2, VCPUs: []*model.VCPU{v}}},
		Schedulable: true,
	}
	res := run(t, starved, Config{}, 500)
	if res.Missed == 0 {
		t.Error("starved core should miss deadlines (WCET 12 > period 10)")
	}
}
