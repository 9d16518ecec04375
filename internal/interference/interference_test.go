package interference

import (
	"math"
	"testing"

	"vc2m/internal/parsec"
)

func fastCfg() Config {
	cfg := DefaultConfig()
	cfg.OpsPerTask = 30000
	return cfg
}

func bench(t *testing.T, name string) parsec.Benchmark {
	t.Helper()
	bm, err := parsec.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return bm
}

func TestCoRunErrors(t *testing.T) {
	cfg := fastCfg()
	if _, err := CoRun(cfg, nil, false, nil, nil, 1); err == nil {
		t.Error("empty benchmark list accepted")
	}
	if _, err := CoRun(cfg, []parsec.Benchmark{bench(t, "canneal")}, true, nil, nil, 1); err == nil {
		t.Error("isolation without cache counts accepted")
	}
}

func TestSoloDeterministic(t *testing.T) {
	cfg := fastCfg()
	a, err := CoRun(cfg, []parsec.Benchmark{bench(t, "dedup")}, false, nil, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CoRun(cfg, []parsec.Benchmark{bench(t, "dedup")}, false, nil, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a.TimeMs[0]) != math.Float64bits(b.TimeMs[0]) {
		t.Errorf("same seed produced different times: %v vs %v", a.TimeMs[0], b.TimeMs[0])
	}
}

func TestInterferenceInflatesTime(t *testing.T) {
	// Co-running with streaming interferers and no isolation must be
	// slower than running alone.
	cfg := fastCfg()
	bm := bench(t, "canneal")
	solo, err := CoRun(cfg, []parsec.Benchmark{bm}, false, nil, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	bms := []parsec.Benchmark{bm, bench(t, "streamcluster"), bench(t, "streamcluster"), bench(t, "streamcluster")}
	shared, err := CoRun(cfg, bms, false, nil, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if shared.TimeMs[0] <= solo.TimeMs[0]*1.05 {
		t.Errorf("shared time %v not meaningfully above solo %v", shared.TimeMs[0], solo.TimeMs[0])
	}
	if shared.MissRate[0] < solo.MissRate[0] {
		t.Errorf("co-runners should not reduce the miss rate: %v vs %v",
			shared.MissRate[0], solo.MissRate[0])
	}
}

func TestIsolationReducesInterference(t *testing.T) {
	// The Section 3.3 headline: vC2M isolation reduces the WCET relative
	// to unregulated co-running.
	cfg := fastCfg()
	row, err := Study(cfg, "canneal", 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	if row.IsolatedMs >= row.SharedMs {
		t.Errorf("isolated time %v not below shared time %v", row.IsolatedMs, row.SharedMs)
	}
	if row.SoloMs > row.SharedMs {
		t.Errorf("solo time %v above shared time %v", row.SoloMs, row.SharedMs)
	}
}

func TestComputeBoundBarelyAffected(t *testing.T) {
	// swaptions is compute-bound: interference must inflate it far less
	// than a memory-bound benchmark — "the exact relationship varies
	// across benchmarks".
	cfg := fastCfg()
	sw, err := Study(cfg, "swaptions", 4, 13)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Study(cfg, "streamcluster", 4, 13)
	if err != nil {
		t.Fatal(err)
	}
	if sw.SharedSlowdown() >= sc.SharedSlowdown() {
		t.Errorf("compute-bound slowdown %v should be below memory-bound %v",
			sw.SharedSlowdown(), sc.SharedSlowdown())
	}
	// Under vC2M isolation the compute-bound benchmark recovers most of
	// the loss (its small working set fits in its partition; the residual
	// is cold-miss latency under bus contention).
	if sw.IsolatedSlowdown() >= sw.SharedSlowdown() {
		t.Errorf("swaptions isolated slowdown %v not below shared %v",
			sw.IsolatedSlowdown(), sw.SharedSlowdown())
	}
	if sw.IsolatedSlowdown() > 2.0 {
		t.Errorf("swaptions isolated slowdown %v, want < 2.0", sw.IsolatedSlowdown())
	}
}

func TestRegulationThrottlesInIsolatedMode(t *testing.T) {
	cfg := fastCfg()
	cfg.BWBudget = 5 // very tight: streaming co-runners must stall
	bms := []parsec.Benchmark{bench(t, "streamcluster"), bench(t, "streamcluster")}
	res, err := CoRun(cfg, bms, true, []int{10, 10}, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throttles[0] == 0 && res.Throttles[1] == 0 {
		t.Error("tight BW budget produced no throttles")
	}
}

func TestStudyRowRatios(t *testing.T) {
	row := StudyRow{Benchmark: "x", SoloMs: 2, SharedMs: 6, IsolatedMs: 3}
	if math.Float64bits(row.SharedSlowdown()) != math.Float64bits(3) {
		t.Errorf("SharedSlowdown = %v, want 3", row.SharedSlowdown())
	}
	if math.Float64bits(row.IsolatedSlowdown()) != math.Float64bits(1.5) {
		t.Errorf("IsolatedSlowdown = %v, want 1.5", row.IsolatedSlowdown())
	}
}

func TestStudyUnknownBenchmark(t *testing.T) {
	if _, err := Study(fastCfg(), "quake", 4, 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}
