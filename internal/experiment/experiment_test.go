package experiment

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"vc2m/internal/alloc"
	"vc2m/internal/model"
	"vc2m/internal/workload"
)

// smallSched runs a reduced sweep that still exercises the full pipeline.
func smallSched(t *testing.T, plat model.Platform, dist workload.Distribution) *SchedResult {
	t.Helper()
	res, err := RunSchedulability(SchedConfig{
		Platform:         plat,
		Dist:             dist,
		UtilMin:          0.4,
		UtilMax:          1.6,
		UtilStep:         0.4,
		TasksetsPerPoint: 6,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunSchedulabilityShape(t *testing.T) {
	res := smallSched(t, model.PlatformA, workload.Uniform)
	if len(res.Series) != 5 {
		t.Fatalf("got %d series, want 5 solutions", len(res.Series))
	}
	// 0.4, 0.8, 1.2, 1.6 = 4 points.
	for _, s := range res.Series {
		if len(s.Points) != 4 {
			t.Fatalf("series %s has %d points, want 4", s.Solution, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Fraction < 0 || p.Fraction > 1 {
				t.Errorf("%s fraction %v out of [0,1]", s.Solution, p.Fraction)
			}
			if p.AvgSeconds < 0 {
				t.Errorf("%s negative runtime", s.Solution)
			}
		}
	}
	if res.Tasksets != 24 {
		t.Errorf("analyzed %d tasksets, want 24", res.Tasksets)
	}
}

func TestSchedulabilityOrdering(t *testing.T) {
	// The paper's headline ordering must hold: vC2M (flattening) beats
	// the baseline in schedulable-area, and at low utilization everyone
	// schedules everything.
	res := smallSched(t, model.PlatformA, workload.Uniform)
	area := map[string]float64{}
	for _, s := range res.Series {
		var a float64
		for _, p := range s.Points {
			a += p.Fraction
		}
		area[s.Solution] = a
		if s.Points[0].Fraction < 1 {
			t.Errorf("%s does not schedule everything at utilization 0.4", s.Solution)
		}
	}
	flat := area["Heuristic (flattening)"]
	base := area["Baseline (existing CSA)"]
	if flat <= base {
		t.Errorf("flattening area %v not above baseline %v", flat, base)
	}
}

func TestSchedulabilityMonotoneFractions(t *testing.T) {
	// Fractions must not increase with utilization (statistically; with
	// common random numbers per point this holds for the step sizes
	// used here).
	res := smallSched(t, model.PlatformA, workload.Uniform)
	for _, s := range res.Series {
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Fraction > s.Points[i-1].Fraction+0.35 {
				t.Errorf("%s fraction jumps up from %v to %v",
					s.Solution, s.Points[i-1].Fraction, s.Points[i].Fraction)
			}
		}
	}
}

func TestKnee(t *testing.T) {
	res := smallSched(t, model.PlatformA, workload.Uniform)
	for _, s := range res.Series {
		knee := res.Knee(s.Solution)
		if knee < 0.4 {
			t.Errorf("%s knee %v below the first (fully schedulable) point", s.Solution, knee)
		}
	}
	if res.Knee("no-such-solution") != 0 { //vc2m:floateq an unknown solution returns the literal 0, nothing is computed
		t.Error("unknown solution should have zero knee")
	}
}

func TestTablesRender(t *testing.T) {
	res := smallSched(t, model.PlatformC, workload.BimodalLight)
	ft := res.FractionTable()
	if !strings.Contains(ft, "platform C") || !strings.Contains(ft, "bimodal-light") {
		t.Errorf("fraction table header missing metadata:\n%s", ft)
	}
	if !strings.Contains(ft, "Heuristic (flattening)") {
		t.Error("fraction table missing solution column")
	}
	rt := res.RuntimeTable()
	if len(strings.Split(rt, "\n")) < 4 {
		t.Error("runtime table too short")
	}
	sum := res.Summary()
	if !strings.Contains(sum, "knee") {
		t.Error("summary missing knee column")
	}
	if got := len(res.SolutionNames()); got != 5 {
		t.Errorf("SolutionNames returned %d names", got)
	}
}

func TestRunSchedulabilityDeterministic(t *testing.T) {
	cfg := SchedConfig{
		Platform: model.PlatformA, Dist: workload.Uniform,
		UtilMin: 0.8, UtilMax: 0.8, UtilStep: 1, TasksetsPerPoint: 5, Seed: 42,
	}
	a, err := RunSchedulability(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSchedulability(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ca, cb := fractionsCSV(t, a), fractionsCSV(t, b); ca != cb {
		t.Errorf("fractions differ between identical runs:\n%s\nvs\n%s", ca, cb)
	}
}

// fractionsCSV serializes every series' fractions; two results with the
// same bytes agree on every point of every series.
func fractionsCSV(t *testing.T, res *SchedResult) string {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteFractionsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestParallelMatchesSerial(t *testing.T) {
	// The parallel sweep must produce bit-identical fractions to the
	// serial one: RNG streams are split before the workers start.
	mk := func(parallel int) *SchedResult {
		res, err := RunSchedulability(SchedConfig{
			Platform: model.PlatformA, Dist: workload.Uniform,
			UtilMin: 0.6, UtilMax: 1.4, UtilStep: 0.4,
			TasksetsPerPoint: 6, Seed: 77, Parallel: parallel,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if serial, parallel := fractionsCSV(t, mk(1)), fractionsCSV(t, mk(4)); serial != parallel {
		t.Fatalf("serial fractions:\n%s\nparallel fractions:\n%s", serial, parallel)
	}
}

func TestRunSchedulabilityCustomSolutions(t *testing.T) {
	res, err := RunSchedulability(SchedConfig{
		Platform: model.PlatformA, Dist: workload.Uniform,
		UtilMin: 0.5, UtilMax: 0.5, UtilStep: 1, TasksetsPerPoint: 3, Seed: 2,
		Solutions: []alloc.Allocator{&alloc.Heuristic{Mode: alloc.Flattening}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 {
		t.Errorf("got %d series, want 1", len(res.Series))
	}
}

func TestRunSchedulabilityProgress(t *testing.T) {
	calls := 0
	_, err := RunSchedulability(SchedConfig{
		Platform: model.PlatformA, Dist: workload.Uniform,
		UtilMin: 0.4, UtilMax: 0.8, UtilStep: 0.4, TasksetsPerPoint: 2, Seed: 3,
		Solutions: []alloc.Allocator{alloc.Baseline{}},
		Progress:  func(done, total int) { calls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("progress called %d times, want 2", calls)
	}
}

func TestRunSchedulabilityInvalidPlatform(t *testing.T) {
	if _, err := RunSchedulability(SchedConfig{Platform: model.Platform{}}); err == nil {
		t.Error("invalid platform accepted")
	}
}

func TestRunOverhead(t *testing.T) {
	res, err := RunOverhead(OverheadConfig{VCPUs: 24, HorizonMs: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.ThrottleEvents == 0 {
		t.Error("overhead run produced no throttle events; Table 1 would be empty")
	}
	if res.BWReplenishments < 299 {
		t.Errorf("BW replenishments = %d, want ~300 (1 per ms)", res.BWReplenishments)
	}
	samples := map[string]interface{ N() int }{
		"throttle":         &res.Throttle,
		"bw-replenish":     &res.BWReplenish,
		"budget-replenish": &res.BudgetReplenish,
		"scheduling":       &res.Scheduling,
		"context-switch":   &res.ContextSwitch,
	}
	for _, name := range sortedKeys(samples) {
		if samples[name].N() == 0 {
			t.Errorf("no samples for %s", name)
		}
	}
	t1 := res.Table1()
	if !strings.Contains(t1, "Throttle") || !strings.Contains(t1, "replenish") {
		t.Errorf("Table1 malformed:\n%s", t1)
	}
	t2 := res.Table2Row()
	if !strings.Contains(t2, "24 VCPUs") || !strings.Contains(t2, "Context switching") {
		t.Errorf("Table2Row malformed:\n%s", t2)
	}
}

func TestRunOverheadRejectsZeroVCPUs(t *testing.T) {
	if _, err := RunOverhead(OverheadConfig{}); err == nil {
		t.Error("zero VCPUs accepted")
	}
}

func TestRunIsolation(t *testing.T) {
	res, err := RunIsolation(IsolationConfig{
		Benchmarks: []string{"swaptions", "streamcluster"},
		Ops:        20000,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.SoloMs <= 0 || row.SharedMs < row.SoloMs {
			t.Errorf("%s: implausible times %+v", row.Benchmark, row)
		}
		if row.IsolatedMs >= row.SharedMs {
			t.Errorf("%s: isolation did not reduce the co-run WCET", row.Benchmark)
		}
	}
	tbl := res.Table()
	if !strings.Contains(tbl, "streamcluster") || !strings.Contains(tbl, "vc2m-x") {
		t.Errorf("isolation table malformed:\n%s", tbl)
	}
}

func TestRunIsolationUnknownBenchmark(t *testing.T) {
	if _, err := RunIsolation(IsolationConfig{Benchmarks: []string{"nope"}}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// sortedKeys returns m's keys in order, so map-driven assertions report
// in the same order on every run.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m { //vc2m:ordered keys are sorted below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
