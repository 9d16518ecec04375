package alloc

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"vc2m/internal/csa"
	"vc2m/internal/model"
	"vc2m/internal/parsec"
	"vc2m/internal/rngutil"
)

// constVCPU builds a resource-insensitive VCPU with the given bandwidth.
func constVCPU(id string, idx int, p model.Platform, period, budget float64) *model.VCPU {
	return &model.VCPU{ID: id, VM: "vm", Index: idx, Period: period,
		Budget: model.ConstTable(p, budget)}
}

// sensitiveVCPU builds a VCPU whose budget shrinks with cache and BW, from
// a benchmark profile.
func sensitiveVCPU(id string, idx int, p model.Platform, bmName string, period, refBudget float64) *model.VCPU {
	bm, err := parsec.ByName(bmName)
	if err != nil {
		panic(err)
	}
	return &model.VCPU{ID: id, VM: "vm", Index: idx, Period: period,
		Budget: bm.WCETTable(p, refBudget)}
}

func TestHyperLevelEmpty(t *testing.T) {
	a, err := HyperLevel(nil, model.PlatformA, HyperConfig{}, rngutil.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Schedulable || len(a.Cores) != 0 {
		t.Errorf("empty input should be trivially schedulable with no cores: %+v", a)
	}
}

func TestHyperLevelSingleVCPU(t *testing.T) {
	p := model.PlatformA
	v := constVCPU("v1", 0, p, 100, 50)
	a, err := HyperLevel([]*model.VCPU{v}, p, HyperConfig{}, rngutil.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cores) != 1 {
		t.Fatalf("used %d cores, want 1", len(a.Cores))
	}
	if err := a.Validate(nil); err != nil {
		t.Errorf("allocation invalid: %v", err)
	}
}

func TestHyperLevelUsesMinimalCores(t *testing.T) {
	// Two VCPUs of bandwidth 0.4 fit one core; the m-loop must find m=1.
	p := model.PlatformA
	vs := []*model.VCPU{
		constVCPU("v1", 0, p, 100, 40),
		constVCPU("v2", 1, p, 100, 40),
	}
	a, err := HyperLevel(vs, p, HyperConfig{}, rngutil.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cores) != 1 {
		t.Errorf("used %d cores, want 1 (total bandwidth 0.8)", len(a.Cores))
	}
}

func TestHyperLevelSpreadsWhenNeeded(t *testing.T) {
	p := model.PlatformA
	vs := []*model.VCPU{
		constVCPU("v1", 0, p, 100, 70),
		constVCPU("v2", 1, p, 100, 70),
		constVCPU("v3", 2, p, 100, 70),
	}
	a, err := HyperLevel(vs, p, HyperConfig{}, rngutil.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cores) != 3 {
		t.Errorf("used %d cores, want 3 (bandwidth 0.7 each)", len(a.Cores))
	}
	if err := a.Validate(nil); err != nil {
		t.Errorf("allocation invalid: %v", err)
	}
}

func TestHyperLevelUnschedulable(t *testing.T) {
	p := model.PlatformA
	var vs []*model.VCPU
	for i := 0; i < 5; i++ { // 5 x 0.9 > 4 cores
		vs = append(vs, constVCPU("v", i, p, 100, 90))
	}
	_, err := HyperLevel(vs, p, HyperConfig{}, rngutil.New(4))
	if !errors.Is(err, model.ErrNotSchedulable) {
		t.Errorf("expected ErrNotSchedulable, got %v", err)
	}
}

func TestHyperLevelRejectsOverloadedVCPU(t *testing.T) {
	p := model.PlatformA
	v := constVCPU("v1", 0, p, 100, 120) // bandwidth 1.2 even at full allocation
	_, err := HyperLevel([]*model.VCPU{v}, p, HyperConfig{}, rngutil.New(5))
	if !errors.Is(err, model.ErrNotSchedulable) {
		t.Errorf("expected ErrNotSchedulable, got %v", err)
	}
}

func TestHyperLevelGrowsResourcesForSensitiveVCPUs(t *testing.T) {
	// A memory-bound VCPU that is unschedulable at (Cmin, Bmin) but
	// schedulable with more partitions: Phase 2 must grant them.
	p := model.PlatformA
	v := sensitiveVCPU("v1", 0, p, "streamcluster", 100, 60)
	// At full allocation bandwidth = 0.6; at (Cmin, Bmin) the slowdown
	// makes it > 1.
	if v.Bandwidth(p.Cmin, p.Bmin) <= 1 {
		t.Skip("profile not steep enough for this scenario")
	}
	a, err := HyperLevel([]*model.VCPU{v}, p, HyperConfig{}, rngutil.New(6))
	if err != nil {
		t.Fatal(err)
	}
	core := a.Cores[0]
	if core.Cache == p.Cmin && core.BW == p.Bmin {
		t.Error("Phase 2 did not grant partitions to an unschedulable core")
	}
	if u := core.Utilization(); u > 1+1e-9 {
		t.Errorf("core still unschedulable: utilization %v", u)
	}
}

func TestHyperLevelRespectsPartitionTotals(t *testing.T) {
	p := model.PlatformC // only 12 partitions
	var vs []*model.VCPU
	names := []string{"streamcluster", "canneal", "facesim", "vips"}
	for i, n := range names {
		vs = append(vs, sensitiveVCPU(n, i, p, n, 100, 35))
	}
	a, err := HyperLevel(vs, p, HyperConfig{}, rngutil.New(7))
	if err != nil {
		if errors.Is(err, model.ErrNotSchedulable) {
			return // acceptable: resources genuinely insufficient
		}
		t.Fatal(err)
	}
	if a.UsedCache() > p.C || a.UsedBW() > p.B {
		t.Errorf("partition totals %d/%d exceed platform %d/%d",
			a.UsedCache(), a.UsedBW(), p.C, p.B)
	}
	if err := a.Validate(nil); err != nil {
		t.Errorf("allocation invalid: %v", err)
	}
}

func TestHyperLevelAppliesOverheadInflation(t *testing.T) {
	p := model.PlatformA
	// Bandwidth 0.5 each; with heavy inflation they cannot share a core.
	mk := func(i int) *model.VCPU { return constVCPU("v", i, p, 100, 50) }
	plain, err := HyperLevel([]*model.VCPU{mk(0), mk(1)}, p, HyperConfig{}, rngutil.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Cores) != 1 {
		t.Fatalf("without inflation want 1 core, got %d", len(plain.Cores))
	}
	inflated, err := HyperLevel([]*model.VCPU{mk(0), mk(1)}, p,
		HyperConfig{Overheads: csa.Overheads{VCPUPreemption: 20}}, rngutil.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(inflated.Cores) < 2 {
		t.Errorf("with 20ms inflation per period want 2 cores, got %d", len(inflated.Cores))
	}
}

func TestGainHandlesInfinities(t *testing.T) {
	if g := gain(math.Inf(1), math.Inf(1)); math.Float64bits(g) != 0 {
		t.Errorf("gain(Inf, Inf) = %v, want 0", g)
	}
	if g := gain(math.Inf(1), 0.5); g < 1e17 {
		t.Errorf("gain(Inf, finite) = %v, want very large", g)
	}
	if g := gain(1.5, 1.2); math.Abs(g-0.3) > 1e-12 {
		t.Errorf("gain(1.5, 1.2) = %v, want 0.3", g)
	}
}

func TestHyperLevelDeterministic(t *testing.T) {
	p := model.PlatformA
	mk := func() []*model.VCPU {
		return []*model.VCPU{
			sensitiveVCPU("a", 0, p, "streamcluster", 100, 30),
			sensitiveVCPU("b", 1, p, "swaptions", 200, 60),
			sensitiveVCPU("c", 2, p, "dedup", 400, 100),
		}
	}
	a1, err1 := HyperLevel(mk(), p, HyperConfig{}, rngutil.New(99))
	a2, err2 := HyperLevel(mk(), p, HyperConfig{}, rngutil.New(99))
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("determinism broken: %v vs %v", err1, err2)
	}
	if err1 != nil {
		return
	}
	if len(a1.Cores) != len(a2.Cores) {
		t.Fatalf("same seed used %d vs %d cores", len(a1.Cores), len(a2.Cores))
	}
	for i := range a1.Cores {
		if a1.Cores[i].Cache != a2.Cores[i].Cache || a1.Cores[i].BW != a2.Cores[i].BW {
			t.Errorf("core %d partition allocation differs between identical runs", i)
		}
	}
}

func TestHyperLevelGuaranteedPackingProperty(t *testing.T) {
	// Sufficient condition: resource-insensitive VCPUs each of bandwidth
	// at most 0.4 with total at most 0.6*M always pack (worst-fit
	// balancing keeps every core within avg + max <= 1.0). The heuristic
	// must never fail such instances.
	f := func(raw []uint8) bool {
		p := model.PlatformA
		var vs []*model.VCPU
		var total float64
		for i, r := range raw {
			bwv := 0.05 + float64(r%36)/100 // in [0.05, 0.40]
			if total+bwv > 0.6*float64(p.M) {
				break
			}
			total += bwv
			vs = append(vs, constVCPU("v", i, p, 100, bwv*100))
		}
		if len(vs) == 0 {
			return true
		}
		_, err := HyperLevel(vs, p, HyperConfig{}, rngutil.New(1))
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestHyperLevelMonotoneInResources(t *testing.T) {
	// A VCPU set schedulable on Platform C (12 partitions) must remain so
	// on Platform A (20 partitions, same cores).
	pc, pa := model.PlatformC, model.PlatformA
	mkFor := func(p model.Platform) []*model.VCPU {
		return []*model.VCPU{
			sensitiveVCPU("a", 0, p, "ferret", 100, 30),
			sensitiveVCPU("b", 1, p, "vips", 200, 70),
			sensitiveVCPU("c", 2, p, "x264", 400, 120),
		}
	}
	_, errC := HyperLevel(mkFor(pc), pc, HyperConfig{}, rngutil.New(11))
	if errC != nil {
		t.Skipf("base case unschedulable: %v", errC)
	}
	if _, errA := HyperLevel(mkFor(pa), pa, HyperConfig{}, rngutil.New(11)); errA != nil {
		t.Errorf("schedulable on C but not on richer A: %v", errA)
	}
}
