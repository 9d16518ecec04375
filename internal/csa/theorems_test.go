package csa

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"vc2m/internal/model"
	"vc2m/internal/rngutil"
)

func TestFlattenVCPU(t *testing.T) {
	p := model.PlatformA
	task := &model.Task{
		ID: "t1", VM: "vm1", Period: 10,
		WCET: model.FuncTable(p, func(c, b int) float64 {
			return 1 + 0.1*float64(p.C-c) + 0.05*float64(p.B-b)
		}),
	}
	v := FlattenVCPU(task, 3)
	if math.Float64bits(v.Period) != math.Float64bits(10) {
		t.Errorf("period = %v, want 10", v.Period)
	}
	if !v.SyncedRelease {
		t.Error("flattened VCPU must have SyncedRelease")
	}
	if v.Index != 3 {
		t.Errorf("index = %d, want 3", v.Index)
	}
	if len(v.Tasks) != 1 || v.Tasks[0] != task {
		t.Error("flattened VCPU must carry exactly its task")
	}
	// Theta(c,b) = e(c,b) everywhere.
	for c := p.Cmin; c <= p.C; c += 6 {
		for b := p.Bmin; b <= p.B; b += 7 {
			if math.Float64bits(v.Budget.At(c, b)) != math.Float64bits(task.WCET.At(c, b)) {
				t.Errorf("budget(%d,%d) = %v, want %v", c, b, v.Budget.At(c, b), task.WCET.At(c, b))
			}
		}
	}
	// Zero abstraction overhead: bandwidth equals task utilization.
	if math.Abs(v.RefBandwidth()-task.RefUtil()) > 1e-12 {
		t.Errorf("bandwidth %v != utilization %v", v.RefBandwidth(), task.RefUtil())
	}
}

func TestFlattenVCPUBudgetIsACopy(t *testing.T) {
	p := model.PlatformA
	task := model.SimpleTask("t1", p, 10, 1)
	v := FlattenVCPU(task, 0)
	v.Budget.Set(p.Cmin, p.Bmin, 99)
	if task.WCET.At(p.Cmin, p.Bmin) == 99 {
		t.Error("FlattenVCPU must clone the WCET table")
	}
}

func TestWellRegulatedVCPUBandwidthEqualsUtilization(t *testing.T) {
	p := model.PlatformA
	tasks := []*model.Task{
		model.SimpleTask("t1", p, 10, 1),
		model.SimpleTask("t2", p, 20, 4),
		model.SimpleTask("t3", p, 40, 8),
	}
	for _, task := range tasks {
		task.VM = "vm1"
	}
	v, err := WellRegulatedVCPU(tasks, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(v.Period) != math.Float64bits(10) {
		t.Errorf("period = %v, want min task period 10", v.Period)
	}
	if !v.WellRegulated {
		t.Error("VCPU must be marked well-regulated")
	}
	// Utilization = 0.1 + 0.2 + 0.2 = 0.5; Theta = 10 * 0.5 = 5.
	if math.Abs(v.Budget.Reference()-5) > 1e-9 {
		t.Errorf("budget = %v, want 5", v.Budget.Reference())
	}
	if math.Abs(v.RefBandwidth()-0.5) > 1e-12 {
		t.Errorf("bandwidth = %v, want taskset utilization 0.5", v.RefBandwidth())
	}
}

func TestWellRegulatedVCPUPerAllocation(t *testing.T) {
	// Bandwidth equals utilization at every (c,b), not just the reference.
	p := model.PlatformC
	mk := func(id string, period, base float64) *model.Task {
		return &model.Task{ID: id, VM: "vm1", Period: period,
			WCET: model.FuncTable(p, func(c, b int) float64 {
				return base * (1 + 0.2*float64(p.C-c) + 0.1*float64(p.B-b))
			})}
	}
	tasks := []*model.Task{mk("t1", 100, 5), mk("t2", 200, 12), mk("t3", 400, 30)}
	v, err := WellRegulatedVCPU(tasks, 1)
	if err != nil {
		t.Fatal(err)
	}
	for c := p.Cmin; c <= p.C; c++ {
		for b := p.Bmin; b <= p.B; b++ {
			var util float64
			for _, task := range tasks {
				util += task.Util(c, b)
			}
			if math.Abs(v.Bandwidth(c, b)-util) > 1e-9 {
				t.Fatalf("bandwidth(%d,%d) = %v, want %v", c, b, v.Bandwidth(c, b), util)
			}
		}
	}
}

func TestWellRegulatedVCPURejectsNonHarmonic(t *testing.T) {
	p := model.PlatformA
	tasks := []*model.Task{
		model.SimpleTask("t1", p, 10, 1),
		model.SimpleTask("t2", p, 15, 1),
	}
	if _, err := WellRegulatedVCPU(tasks, 0); !errors.Is(err, ErrNotHarmonic) {
		t.Errorf("expected ErrNotHarmonic, got %v", err)
	}
}

func TestWellRegulatedVCPURejectsEmpty(t *testing.T) {
	if _, err := WellRegulatedVCPU(nil, 0); err == nil {
		t.Error("empty taskset accepted")
	}
}

func TestWellRegulatedBandwidthPropertyHarmonic(t *testing.T) {
	// For random harmonic tasksets, the overhead-free VCPU's bandwidth is
	// exactly the taskset utilization — the abstraction overhead is zero.
	p := model.PlatformC
	f := func(seed uint8, n uint8, baseRaw uint16) bool {
		base := 100 + float64(baseRaw%300)/10
		count := int(n%5) + 1
		tasks := make([]*model.Task, count)
		var util float64
		for i := range tasks {
			period := base * float64(int(1)<<uint((int(seed)+i)%4))
			wcet := period * (0.05 + float64((int(seed)*7+i*13)%30)/100)
			tasks[i] = model.SimpleTask("t", p, period, wcet)
			util += wcet / period
		}
		v, err := WellRegulatedVCPU(tasks, 0)
		if err != nil {
			return false
		}
		return math.Abs(v.RefBandwidth()-util) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// wellRegulatedRef is WellRegulatedVCPU's budget as it was computed before
// AddScaled: every task's table cloned, scaled, then added. It is the
// differential oracle for the fused path.
func wellRegulatedRef(tasks []*model.Task, pi float64) *model.ResourceTable {
	budget := tasks[0].WCET.Clone().Scale(pi / tasks[0].Period)
	for _, t := range tasks[1:] {
		budget.AddTable(t.WCET.Clone().Scale(pi / t.Period))
	}
	return budget
}

// randomHarmonicTasks draws 1..12 tasks on p with WCET tables of
// independent random entries spanning several decades. Periods are base
// times a chain of multipliers with ratios 2, 3 and 5, so the scale factors
// Pi/p_i are not all powers of two, whose products would be exact and
// could not tell one rounding from two.
func randomHarmonicTasks(rng *rngutil.RNG, p model.Platform) []*model.Task {
	base := 1 + rng.Float64()*200
	ladder := []float64{1}
	for len(ladder) < 5 {
		ladder = append(ladder, ladder[len(ladder)-1]*[]float64{2, 3, 5}[rng.Intn(3)])
	}
	tasks := make([]*model.Task, 1+rng.Intn(12))
	for i := range tasks {
		period := base * ladder[rng.Intn(len(ladder))]
		tasks[i] = &model.Task{ID: fmt.Sprintf("t%d", i), VM: "vm", Period: period,
			WCET: model.FuncTable(p, func(int, int) float64 {
				return period * rng.Float64() * math.Pow(10, float64(rng.Intn(7)-3))
			})}
	}
	return tasks
}

// TestWellRegulatedVCPUMatchesClonePath pins WellRegulatedVCPU's budget,
// entry by entry and bit for bit, to wellRegulatedRef over random harmonic
// task sets on every platform.
func TestWellRegulatedVCPUMatchesClonePath(t *testing.T) {
	rng := rngutil.New(23)
	for _, p := range []model.Platform{model.PlatformA, model.PlatformB, model.PlatformC} {
		for trial := 0; trial < 100; trial++ {
			tasks := randomHarmonicTasks(rng, p)
			v, err := WellRegulatedVCPU(tasks, trial)
			if err != nil {
				t.Fatal(err)
			}
			want := wellRegulatedRef(tasks, v.Period)
			for c := p.Cmin; c <= p.C; c++ {
				for b := p.Bmin; b <= p.B; b++ {
					if got, w := v.Budget.At(c, b), want.At(c, b); math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("platform %s, trial %d, %d tasks: budget(%d,%d) = %v, clone path %v",
							p.Name, trial, len(tasks), c, b, got, w)
					}
				}
			}
		}
	}
}

// TestWellRegulatedVCPUAllocs pins WellRegulatedVCPU's allocations per
// call: the periods slice, the budget table (header and values), the ID
// (its boxed format argument and the string), the VCPU and its task list —
// the same seven for one task or twelve, because further tasks are added
// into the budget in place.
func TestWellRegulatedVCPUAllocs(t *testing.T) {
	for _, n := range []int{1, 2, 12} {
		tasks := benchTasks(n)
		allocs := int(testing.AllocsPerRun(100, func() {
			if _, err := WellRegulatedVCPU(tasks, 7); err != nil {
				t.Fatal(err)
			}
		}))
		if allocs != 7 {
			t.Errorf("%d tasks: %d allocations per call, want 7", n, allocs)
		}
	}
}

// TestWellRegulatedBandwidthMatchesVCPU pins the one-cell price
// Evenly-partition packs with to the VCPU it stands for: at every (c, b),
// bit for bit, WellRegulatedBandwidth equals WellRegulatedVCPU's
// Bandwidth, over random harmonic task sets whose scale factors are not
// powers of two; and both return the same errors.
func TestWellRegulatedBandwidthMatchesVCPU(t *testing.T) {
	rng := rngutil.New(25)
	for _, p := range []model.Platform{model.PlatformA, model.PlatformB, model.PlatformC} {
		for trial := 0; trial < 100; trial++ {
			tasks := randomHarmonicTasks(rng, p)
			v, err := WellRegulatedVCPU(tasks, trial)
			if err != nil {
				t.Fatal(err)
			}
			for c := p.Cmin; c <= p.C; c++ {
				for b := p.Bmin; b <= p.B; b++ {
					got, err := WellRegulatedBandwidth(tasks, c, b)
					if err != nil {
						t.Fatal(err)
					}
					if want := v.Bandwidth(c, b); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("platform %s, trial %d, %d tasks: bandwidth(%d,%d) = %v, VCPU's %v",
							p.Name, trial, len(tasks), c, b, got, want)
					}
				}
			}
			if id := WellRegulatedID(tasks[0].VM, trial); id != v.ID {
				t.Fatalf("WellRegulatedID = %q, VCPU ID %q", id, v.ID)
			}
		}
	}
	p := model.PlatformA
	for _, tasks := range [][]*model.Task{
		nil,
		{model.SimpleTask("a", p, 100, 1), model.SimpleTask("b", p, 150, 1)},
	} {
		_, errV := WellRegulatedVCPU(tasks, 0)
		_, errB := WellRegulatedBandwidth(tasks, p.C, p.B)
		if errV == nil || fmt.Sprint(errB) != fmt.Sprint(errV) {
			t.Errorf("%d tasks: WellRegulatedBandwidth error %v, WellRegulatedVCPU %v", len(tasks), errB, errV)
		}
	}
}
