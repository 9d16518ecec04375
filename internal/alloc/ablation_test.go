package alloc

import (
	"testing"

	"vc2m/internal/model"
	"vc2m/internal/rngutil"
	"vc2m/internal/workload"
)

// countSchedulable runs the allocator over several generated tasksets and
// returns how many it schedules.
func countSchedulable(t *testing.T, h *Heuristic, target float64, n int) int {
	t.Helper()
	ok := 0
	for seed := int64(0); seed < int64(n); seed++ {
		sys, err := workload.Generate(workload.Config{
			Platform:      model.PlatformA,
			TargetRefUtil: target,
			Dist:          workload.Uniform,
		}, rngutil.New(9000+seed))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Allocate(sys, rngutil.New(seed)); err == nil {
			ok++
		}
	}
	return ok
}

func TestAblationSwitchesStillProduceValidAllocations(t *testing.T) {
	cfgs := []struct {
		name string
		cfg  HyperConfig
	}{
		{"all-ablations-off", HyperConfig{}},
		{"no-clustering", HyperConfig{NoClustering: true}},
		{"no-load-balance", HyperConfig{NoLoadBalance: true}},
		{"no-resource-grow", HyperConfig{NoResourceGrowth: true}},
	}
	sys, err := workload.Generate(workload.Config{
		Platform:      model.PlatformA,
		TargetRefUtil: 0.8,
		Dist:          workload.Uniform,
	}, rngutil.New(77))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cfgs {
		h := &Heuristic{Mode: OverheadFree, Hyper: c.cfg}
		a, err := h.Allocate(sys, rngutil.New(1))
		if err != nil {
			continue // an ablated variant may legitimately fail
		}
		if err := a.Validate(sys.Tasks()); err != nil {
			t.Errorf("%s: invalid allocation: %v", c.name, err)
		}
	}
}

func TestAblationFullHeuristicDominates(t *testing.T) {
	// At a load near the full heuristic's knee, each ablation must not
	// schedule more tasksets than the complete algorithm (the paper's
	// claim that combining the ingredients is what matters).
	const target, n = 1.7, 10
	full := countSchedulable(t, &Heuristic{Mode: OverheadFree}, target, n)
	for _, c := range []struct {
		name string
		cfg  HyperConfig
	}{
		{"no-clustering", HyperConfig{NoClustering: true}},
		{"no-load-balance", HyperConfig{NoLoadBalance: true}},
		{"no-resource-grow", HyperConfig{NoResourceGrowth: true}},
	} {
		ablated := countSchedulable(t, &Heuristic{Mode: OverheadFree, Hyper: c.cfg}, target, n)
		if ablated > full {
			t.Errorf("%s schedules %d/%d tasksets, full heuristic only %d/%d",
				c.name, ablated, n, full, n)
		}
	}
}

func TestAblationResourceGrowthMatters(t *testing.T) {
	// The demand-driven Phase 2 must beat an even split somewhere: find a
	// load level where the gap shows.
	found := false
	for _, target := range []float64{1.5, 1.7, 1.9} {
		full := countSchedulable(t, &Heuristic{Mode: OverheadFree}, target, 10)
		even := countSchedulable(t, &Heuristic{Mode: OverheadFree,
			Hyper: HyperConfig{NoResourceGrowth: true}}, target, 10)
		if full > even {
			found = true
			break
		}
	}
	if !found {
		t.Error("demand-driven resource allocation never beat the even split")
	}
}
