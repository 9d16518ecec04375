package alloc

import (
	"errors"
	"math"
	"runtime/debug"
	"slices"
	"testing"

	"vc2m/internal/kmeans"
	"vc2m/internal/model"
	"vc2m/internal/parsec"
	"vc2m/internal/rngutil"
)

func mkVM(id string, tasks ...*model.Task) *model.VM {
	for _, t := range tasks {
		t.VM = id
	}
	return &model.VM{ID: id, Tasks: tasks}
}

func TestCSAModeString(t *testing.T) {
	cases := []struct {
		m    CSAMode
		want string
	}{
		{Flattening, "flattening"},
		{OverheadFree, "overhead-free CSA"},
		{ExistingCSA, "existing CSA"},
		{CSAMode(99), "unknown"},
	}
	for _, c := range cases {
		if got := c.m.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", c.m, got, c.want)
		}
	}
}

func TestVMLevelFlattening(t *testing.T) {
	p := model.PlatformA
	vm := mkVM("vm1",
		model.SimpleTask("t1", p, 100, 10),
		model.SimpleTask("t2", p, 200, 30),
	)
	vcpus, err := VMLevel(vm, p, VMLevelConfig{Mode: Flattening}, 5, rngutil.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(vcpus) != 2 {
		t.Fatalf("flattening produced %d VCPUs, want 2 (one per task)", len(vcpus))
	}
	for i, v := range vcpus {
		if !v.SyncedRelease {
			t.Errorf("VCPU %d lacks SyncedRelease", i)
		}
		if v.Index != 5+i {
			t.Errorf("VCPU %d index = %d, want %d", i, v.Index, 5+i)
		}
		if math.Float64bits(v.Period) != math.Float64bits(vm.Tasks[i].Period) {
			t.Errorf("VCPU %d period = %v, want task period %v", i, v.Period, vm.Tasks[i].Period)
		}
	}
}

func TestVMLevelFlatteningRespectsVCPULimit(t *testing.T) {
	p := model.PlatformA
	vm := mkVM("vm1",
		model.SimpleTask("t1", p, 100, 10),
		model.SimpleTask("t2", p, 200, 30),
	)
	vm.MaxVCPUs = 1
	_, err := VMLevel(vm, p, VMLevelConfig{Mode: Flattening}, 0, rngutil.New(1))
	if !errors.Is(err, ErrTooManyTasks) {
		t.Errorf("expected ErrTooManyTasks, got %v", err)
	}
}

func TestVMLevelEmptyVM(t *testing.T) {
	if _, err := VMLevel(&model.VM{ID: "e"}, model.PlatformA,
		VMLevelConfig{Mode: Flattening}, 0, rngutil.New(1)); err == nil {
		t.Error("empty VM accepted")
	}
}

func TestVMLevelUnknownMode(t *testing.T) {
	p := model.PlatformA
	vm := mkVM("vm1", model.SimpleTask("t1", p, 100, 10))
	if _, err := VMLevel(vm, p, VMLevelConfig{Mode: CSAMode(42)}, 0, rngutil.New(1)); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestVMLevelOverheadFreeCoversAllTasksOnce(t *testing.T) {
	p := model.PlatformA
	bmNames := []string{"streamcluster", "swaptions", "canneal", "blackscholes", "ferret", "dedup"}
	var tasks []*model.Task
	for i, name := range bmNames {
		bm, _ := parsec.ByName(name)
		period := 100.0 * float64(int(1)<<uint(i%3))
		tasks = append(tasks, &model.Task{
			ID: name, Period: period,
			WCET:      bm.WCETTable(p, period*0.15),
			Benchmark: name,
		})
	}
	vm := mkVM("vm1", tasks...)
	vcpus, err := VMLevel(vm, p, VMLevelConfig{Mode: OverheadFree}, 0, rngutil.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(vcpus) == 0 || len(vcpus) > p.M {
		t.Fatalf("produced %d VCPUs, want between 1 and %d (min(#tasks, M))", len(vcpus), p.M)
	}
	seen := map[string]int{}
	for _, v := range vcpus {
		if !v.WellRegulated {
			t.Errorf("VCPU %s not marked well-regulated", v.ID)
		}
		var util float64
		for _, task := range v.Tasks {
			seen[task.ID]++
			util += task.RefUtil()
		}
		// Theorem 2: zero abstraction overhead.
		if math.Abs(v.RefBandwidth()-util) > 1e-9 {
			t.Errorf("VCPU %s bandwidth %v != taskset utilization %v", v.ID, v.RefBandwidth(), util)
		}
	}
	for _, task := range tasks {
		if seen[task.ID] != 1 {
			t.Errorf("task %s mapped %d times, want 1", task.ID, seen[task.ID])
		}
	}
}

func TestVMLevelExistingCSAProducesBudgets(t *testing.T) {
	p := model.PlatformA
	vm := mkVM("vm1",
		model.SimpleTask("t1", p, 100, 10),
		model.SimpleTask("t2", p, 200, 20),
	)
	vcpus, err := VMLevel(vm, p, VMLevelConfig{Mode: ExistingCSA}, 0, rngutil.New(3))
	if err != nil {
		t.Fatal(err)
	}
	var taskUtil, vcpuBW float64
	for _, v := range vcpus {
		vcpuBW += v.RefBandwidth()
	}
	for _, task := range vm.Tasks {
		taskUtil += task.RefUtil()
	}
	// The existing CSA carries abstraction overhead: strictly more
	// bandwidth than the taskset utilization.
	if vcpuBW <= taskUtil {
		t.Errorf("existing CSA bandwidth %v should exceed utilization %v", vcpuBW, taskUtil)
	}
}

func TestVMLevelOverheadFreeRejectsNonHarmonic(t *testing.T) {
	p := model.PlatformA
	vm := mkVM("vm1",
		model.SimpleTask("t1", p, 100, 10),
		model.SimpleTask("t2", p, 150, 10),
	)
	// With one VCPU forced (M=1 means m=1), both tasks land together and
	// Theorem 2's harmonicity requirement fails.
	small := model.Platform{Name: "one", M: 1, C: 20, B: 20, Cmin: 2, Bmin: 1}
	if _, err := VMLevel(vm, small, VMLevelConfig{Mode: OverheadFree}, 0, rngutil.New(1)); err == nil {
		t.Error("non-harmonic taskset accepted by overhead-free analysis")
	}
}

func TestVMLevelExistingCSAHandlesNonHarmonic(t *testing.T) {
	// The existing analysis does not require harmonic periods (its demand
	// machinery quantizes to ticks and takes the LCM).
	p := model.PlatformA
	vm := mkVM("vm1",
		model.SimpleTask("t1", p, 100, 10),
		model.SimpleTask("t2", p, 150, 15),
	)
	small := model.Platform{Name: "one", M: 1, C: 20, B: 20, Cmin: 2, Bmin: 1}
	vcpus, err := VMLevel(vm, small, VMLevelConfig{Mode: ExistingCSA}, 0, rngutil.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(vcpus) != 1 {
		t.Fatalf("got %d VCPUs, want 1 on a single-core platform", len(vcpus))
	}
	// Bandwidth strictly above the 0.2 utilization (abstraction overhead).
	if bw := vcpus[0].RefBandwidth(); bw <= 0.2 {
		t.Errorf("bandwidth %v should exceed the taskset utilization 0.2", bw)
	}
}

func TestVMLevelSingleTask(t *testing.T) {
	p := model.PlatformA
	vm := mkVM("vm1", model.SimpleTask("t1", p, 100, 10))
	for _, mode := range []CSAMode{Flattening, OverheadFree, ExistingCSA} {
		vcpus, err := VMLevel(vm, p, VMLevelConfig{Mode: mode}, 0, rngutil.New(1))
		if err != nil {
			t.Errorf("mode %v: %v", mode, err)
			continue
		}
		if len(vcpus) != 1 {
			t.Errorf("mode %v: %d VCPUs, want 1", mode, len(vcpus))
		}
	}
}

func TestVMLevelRespectsMaxVCPUs(t *testing.T) {
	p := model.PlatformA
	vm := mkVM("vm1",
		model.SimpleTask("t1", p, 100, 5),
		model.SimpleTask("t2", p, 100, 5),
		model.SimpleTask("t3", p, 100, 5),
	)
	vm.MaxVCPUs = 2
	vcpus, err := VMLevel(vm, p, VMLevelConfig{Mode: OverheadFree}, 0, rngutil.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(vcpus) > 2 {
		t.Errorf("produced %d VCPUs, limit is 2", len(vcpus))
	}
}

func TestApportion(t *testing.T) {
	groups := [][]int{{0, 1, 2}, {3, 4}, {5}}
	counts := apportion([]float64{0.6, 0.3, 0.1}, groups, 4)
	total := 0
	for c, n := range counts {
		if n < 1 {
			t.Errorf("cluster %d got %d VCPUs, want at least 1", c, n)
		}
		if n > len(groups[c]) {
			t.Errorf("cluster %d got %d VCPUs for %d tasks", c, n, len(groups[c]))
		}
		total += n
	}
	if total != 4 {
		t.Errorf("apportioned %d VCPUs, want 4", total)
	}
	// The heaviest cluster receives the extra VCPU.
	if counts[0] != 2 {
		t.Errorf("heaviest cluster got %d, want 2: %v", counts[0], counts)
	}
}

func TestApportionSaturation(t *testing.T) {
	// More VCPUs than tasks: every cluster saturates at its task count.
	groups := [][]int{{0}, {1}}
	counts := apportion([]float64{0.5, 0.5}, groups, 10)
	if counts[0] != 1 || counts[1] != 1 {
		t.Errorf("saturated apportion = %v, want [1 1]", counts)
	}
}

func TestApportionZeroUtil(t *testing.T) {
	groups := [][]int{{0, 1}, {2}}
	counts := apportion([]float64{0, 0}, groups, 3)
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != 3 {
		t.Errorf("zero-util apportion total = %d, want 3 (%v)", total, counts)
	}
}

func TestClampVector(t *testing.T) {
	v := clampVector([]float64{1, math.Inf(1), math.NaN(), 200})
	for i, x := range v {
		if x > slowdownCap || math.IsNaN(x) {
			t.Errorf("entry %d = %v not clamped", i, x)
		}
	}
	if math.Float64bits(v[0]) != math.Float64bits(1) {
		t.Error("finite small entries must pass through")
	}
}

// slowdownTables returns n Platform A tables shaped like existing-CSA
// budgets: decreasing in c and b, with +Inf where the allocation is too
// small, so clampVector has work to do.
func slowdownTables(rng *rngutil.RNG, n int) []*model.ResourceTable {
	p := model.PlatformA
	tables := make([]*model.ResourceTable, n)
	for i := range tables {
		scale := 1 + 4*rng.Float64()
		cut := rng.Intn(p.C)
		tables[i] = model.FuncTable(p, func(c, b int) float64 {
			if c < cut && b < p.Bmin+2 {
				return math.Inf(1)
			}
			return 1 + scale*float64(p.C-c)/float64(p.C) + float64(p.B-b)/float64(p.B)
		})
	}
	return tables
}

// freshSlowdownPoints is slowdownPoints on a buffer of its own.
func freshSlowdownPoints(tables []*model.ResourceTable) []float64 {
	var points []float64
	for _, tab := range tables {
		start := len(points)
		points = tab.AppendSlowdown(points)
		clampVector(points[start:])
	}
	return points
}

// raceEnabled reports whether the test binary was built with -race, under
// which sync.Pool drops items on purpose, so pooled-buffer tests cannot
// count on reuse. (A build-tagged constant would do, but vc2m-lint
// type-checks every file regardless of build constraints.)
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestSlowdownPointsReuse: a pooled buffer left by a larger call, and
// poisoned with NaN over its whole capacity, must yield exactly the
// points a fresh buffer does for a smaller call — no stale row leaks.
func TestSlowdownPointsReuse(t *testing.T) {
	rng := rngutil.New(4)
	large, small := slowdownTables(rng, 12), slowdownTables(rng, 3)
	get := func(tables []*model.ResourceTable) (*[]float64, int) {
		return slowdownPoints(len(tables), func(i int) *model.ResourceTable { return tables[i] })
	}

	big, _ := get(large)
	bigData := &(*big)[:1][0]
	poison := (*big)[:cap(*big)]
	for i := range poison {
		poison[i] = math.NaN()
	}
	pointsPool.Put(big)

	got, _ := get(small)
	defer pointsPool.Put(got)
	if !raceEnabled() && &(*got)[:1][0] != bigData {
		t.Fatal("the smaller call did not reuse the pooled buffer")
	}
	want := freshSlowdownPoints(small)
	if len(*got) != len(want) {
		t.Fatalf("%d entries, fresh buffer gives %d", len(*got), len(want))
	}
	for i, w := range want {
		if math.Float64bits((*got)[i]) != math.Float64bits(w) {
			t.Fatalf("entry %d = %v, fresh buffer gives %v", i, (*got)[i], w)
		}
	}
}

// TestSlowdownPointsClusterAllocs pins the steady state of both
// clustering call sites: with the points buffer and kmeans' working
// memory recycled, the only allocation left is the assignment the caller
// keeps.
func TestSlowdownPointsClusterAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector makes sync.Pool drop items on purpose")
	}
	tables := slowdownTables(rngutil.New(5), 20)
	rng := rngutil.New(6)
	allocs := int(testing.AllocsPerRun(50, func() {
		points, dim := slowdownPoints(len(tables), func(i int) *model.ResourceTable { return tables[i] })
		kmeans.Cluster(*points, dim, 3, rng)
		pointsPool.Put(points)
	}))
	if allocs != 1 {
		t.Errorf("%d allocations per slowdownPoints + Cluster, want 1 (the assignment)", allocs)
	}
}

// TestClampPredicateMatchesThreeTests: the single compare clampVector
// makes, !(x <= slowdownCap), caps exactly the entries the three tests it
// replaced capped.
func TestClampPredicateMatchesThreeTests(t *testing.T) {
	probes := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), slowdownCap,
		math.Nextafter(slowdownCap, math.Inf(1)), math.Nextafter(slowdownCap, math.Inf(-1)),
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x000fffffffffffff),
		1, -1, 200, math.MaxFloat64, -math.MaxFloat64,
	}
	for _, x := range probes {
		old := x > slowdownCap || math.IsInf(x, 1) || math.IsNaN(x)
		v := clampVector([]float64{x})
		capped := math.Float64bits(v[0]) != math.Float64bits(x)
		if math.IsNaN(x) {
			capped = !math.IsNaN(v[0])
		}
		if capped != old {
			t.Errorf("x = %v (bits %#x): clampVector caps %v, the three tests %v", x, math.Float64bits(x), capped, old)
		}
		if old && math.Float64bits(v[0]) != math.Float64bits(slowdownCap) {
			t.Errorf("x = %v capped to %v, want %v", x, v[0], slowdownCap)
		}
	}
}

// TestApportionRoundsShare pins apportion's share to a rounded product.
// The first two utilizations are adjacent floats whose shares round to
// the same value, so their remainders tie and the first cluster takes the
// spare VCPU. Fusing the product into the remainder (share -
// float64(whole) as one multiply-add, which arm64 and others may emit)
// would tell the exact shares apart and hand it to the second. The
// inputs were found by search.
func TestApportionRoundsShare(t *testing.T) {
	utils := []float64{
		math.Float64frombits(0x3fda372f94d70855),
		math.Float64frombits(0x3fda372f94d70856),
		math.Float64frombits(0x3f9e6225fad2fff8),
	}
	groups := [][]int{make([]int, 20), make([]int, 20), make([]int, 20)}
	if got := apportion(utils, groups, 6); !slices.Equal(got, []int{3, 2, 1}) {
		t.Fatalf("apportion = %v, want [3 2 1]", got)
	}
}
