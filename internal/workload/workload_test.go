package workload

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"vc2m/internal/csa"
	"vc2m/internal/model"
	"vc2m/internal/parsec"
	"vc2m/internal/rngutil"
)

func gen(t *testing.T, cfg Config, seed int64) *model.System {
	t.Helper()
	sys, err := Generate(cfg, rngutil.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestDistributionString(t *testing.T) {
	cases := map[Distribution]string{
		Uniform:          "uniform",
		BimodalLight:     "bimodal-light",
		BimodalMedium:    "bimodal-medium",
		BimodalHeavy:     "bimodal-heavy",
		Distribution(99): "unknown",
	}
	for d, want := range cases { //vc2m:ordered test-case map; order only affects error interleaving
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", d, got, want)
		}
	}
}

func TestParseDistribution(t *testing.T) {
	for _, name := range []string{"uniform", "light", "medium", "heavy",
		"bimodal-light", "bimodal-medium", "bimodal-heavy"} {
		if _, err := ParseDistribution(name); err != nil {
			t.Errorf("ParseDistribution(%q): %v", name, err)
		}
	}
	if _, err := ParseDistribution("gaussian"); err == nil {
		t.Error("unknown distribution accepted")
	}
}

func TestGenerateValidSystem(t *testing.T) {
	sys := gen(t, Config{Platform: model.PlatformA, TargetRefUtil: 1.0, Dist: Uniform}, 1)
	if err := sys.Validate(); err != nil {
		t.Fatalf("generated system invalid: %v", err)
	}
	if len(sys.Tasks()) == 0 {
		t.Fatal("no tasks generated")
	}
}

func TestGenerateReachesTarget(t *testing.T) {
	for _, target := range []float64{0.1, 0.5, 1.0, 2.0} {
		sys := gen(t, Config{Platform: model.PlatformA, TargetRefUtil: target, Dist: Uniform}, 7)
		got := sys.RefUtil()
		if got < target {
			t.Errorf("target %v: total reference utilization %v below target", target, got)
		}
		// One task overshoot at most: each task's reference utilization is
		// below its drawn utilization (s^max >= 1), itself at most 0.9.
		if got > target+0.9 {
			t.Errorf("target %v: total reference utilization %v overshoots", target, got)
		}
	}
}

func TestGeneratePeriodsHarmonicAndInRange(t *testing.T) {
	sys := gen(t, Config{Platform: model.PlatformA, TargetRefUtil: 2.0, Dist: Uniform}, 11)
	var periods []float64
	for _, task := range sys.Tasks() {
		if task.Period < 100-1e-9 || task.Period > 1100+1e-9 {
			t.Errorf("task %s period %v outside [100, 1100]", task.ID, task.Period)
		}
		periods = append(periods, task.Period)
	}
	if !csa.HarmonicPeriods(periods) {
		t.Error("generated periods are not harmonic")
	}
}

func TestGenerateUtilizationsMatchDistribution(t *testing.T) {
	// The drawn utilization is e^max / p; reconstruct it and check range.
	sys := gen(t, Config{Platform: model.PlatformA, TargetRefUtil: 5.0, Dist: Uniform}, 13)
	for _, task := range sys.Tasks() {
		bm, err := parsec.ByName(task.Benchmark)
		if err != nil {
			t.Fatalf("task %s has unknown benchmark: %v", task.ID, err)
		}
		uMax := task.RefWCET() * bm.MaxSlowdown(model.PlatformA) / task.Period
		if uMax < 0.1-1e-9 || uMax > 0.4+1e-9 {
			t.Errorf("task %s drawn utilization %v outside [0.1, 0.4]", task.ID, uMax)
		}
	}
}

func TestGenerateBimodalHeavyHasHeavyTasks(t *testing.T) {
	sys := gen(t, Config{Platform: model.PlatformA, TargetRefUtil: 5.0, Dist: BimodalHeavy}, 17)
	heavy := 0
	for _, task := range sys.Tasks() {
		bm, _ := parsec.ByName(task.Benchmark)
		uMax := task.RefWCET() * bm.MaxSlowdown(model.PlatformA) / task.Period
		if uMax >= 0.5 {
			heavy++
		}
	}
	if heavy == 0 {
		t.Error("bimodal-heavy generated no heavy tasks")
	}
}

func TestGenerateWCETTablesMonotone(t *testing.T) {
	sys := gen(t, Config{Platform: model.PlatformC, TargetRefUtil: 1.0, Dist: Uniform}, 19)
	for _, task := range sys.Tasks() {
		if err := task.WCET.CheckMonotone(); err != nil {
			t.Errorf("task %s: %v", task.ID, err)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Platform: model.PlatformA, TargetRefUtil: 1.0, Dist: Uniform}
	a := gen(t, cfg, 42)
	b := gen(t, cfg, 42)
	ta, tb := a.Tasks(), b.Tasks()
	if len(ta) != len(tb) {
		t.Fatalf("same seed produced %d vs %d tasks", len(ta), len(tb))
	}
	for i := range ta {
		if math.Float64bits(ta[i].Period) != math.Float64bits(tb[i].Period) ||
			math.Float64bits(ta[i].RefWCET()) != math.Float64bits(tb[i].RefWCET()) ||
			ta[i].Benchmark != tb[i].Benchmark {
			t.Fatalf("same seed diverged at task %d", i)
		}
	}
}

func TestGenerateVMSpread(t *testing.T) {
	sys := gen(t, Config{Platform: model.PlatformA, TargetRefUtil: 3.0, Dist: Uniform, NumVMs: 3}, 23)
	if len(sys.VMs) != 3 {
		t.Fatalf("got %d VMs, want 3", len(sys.VMs))
	}
	// Round-robin keeps VM sizes within one task of each other.
	min, max := len(sys.VMs[0].Tasks), len(sys.VMs[0].Tasks)
	for _, vm := range sys.VMs {
		if n := len(vm.Tasks); n < min {
			min = n
		} else if n > max {
			max = n
		}
	}
	if max-min > 1 {
		t.Errorf("VM task counts spread %d..%d, want round-robin balance", min, max)
	}
}

func TestGenerateTinyTargetDropsEmptyVMs(t *testing.T) {
	sys := gen(t, Config{Platform: model.PlatformA, TargetRefUtil: 0.01, Dist: Uniform, NumVMs: 8}, 29)
	for _, vm := range sys.VMs {
		if len(vm.Tasks) == 0 {
			t.Error("empty VM retained")
		}
	}
	if len(sys.Tasks()) == 0 {
		t.Error("tiny target should still produce at least one task")
	}
}

func TestGenerateBenchmarkFilter(t *testing.T) {
	sys := gen(t, Config{Platform: model.PlatformA, TargetRefUtil: 1.0, Dist: Uniform,
		Benchmarks: []string{"swaptions"}}, 31)
	for _, task := range sys.Tasks() {
		if task.Benchmark != "swaptions" {
			t.Errorf("task %s uses %q, want swaptions only", task.ID, task.Benchmark)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	rng := rngutil.New(1)
	if _, err := Generate(Config{Platform: model.PlatformA, TargetRefUtil: 0}, rng); err == nil {
		t.Error("zero target accepted")
	}
	if _, err := Generate(Config{Platform: model.Platform{}, TargetRefUtil: 1}, rng); err == nil {
		t.Error("invalid platform accepted")
	}
	if _, err := Generate(Config{Platform: model.PlatformA, TargetRefUtil: 1,
		Benchmarks: []string{"nope"}}, rng); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestGenerateMaxTasksCap(t *testing.T) {
	sys := gen(t, Config{Platform: model.PlatformA, TargetRefUtil: 1e9, Dist: Uniform, MaxTasks: 50}, 37)
	if got := len(sys.Tasks()); got != 50 {
		t.Errorf("MaxTasks cap produced %d tasks, want 50", got)
	}
}

func TestGenerateWithTraceProfiles(t *testing.T) {
	sys := gen(t, Config{
		Platform:         model.PlatformA,
		TargetRefUtil:    0.5,
		Dist:             Uniform,
		UseTraceProfiles: true,
		TraceOps:         5000,
	}, 43)
	if err := sys.Validate(); err != nil {
		t.Fatalf("trace-profiled system invalid: %v", err)
	}
	// Trace-profiled tasks still have monotone tables and reference
	// utilization consistent with the target.
	for _, task := range sys.Tasks() {
		if err := task.WCET.CheckMonotone(); err != nil {
			t.Errorf("task %s: %v", task.ID, err)
		}
	}
	if sys.RefUtil() < 0.5 {
		t.Errorf("utilization %v below target", sys.RefUtil())
	}
}

func TestReferenceUtilBelowDrawnUtil(t *testing.T) {
	// s^max >= 1 implies reference utilization <= drawn utilization, so a
	// taskset's reference utilization understates its worst-case load —
	// exactly the property the baseline suffers from.
	sys := gen(t, Config{Platform: model.PlatformA, TargetRefUtil: 2.0, Dist: Uniform}, 41)
	for _, task := range sys.Tasks() {
		bm, _ := parsec.ByName(task.Benchmark)
		uMax := task.RefWCET() * bm.MaxSlowdown(model.PlatformA) / task.Period
		if task.RefUtil() > uMax+1e-12 {
			t.Errorf("task %s reference util %v above drawn util %v", task.ID, task.RefUtil(), uMax)
		}
	}
	_ = math.Pi
}

// TestConfigWireByteIdentity: generation specs submitted to the
// allocation server re-encode identically after a round trip, and the
// distribution travels as its figure name.
func TestConfigWireByteIdentity(t *testing.T) {
	in := Config{
		Platform:      model.PlatformB,
		TargetRefUtil: 2.5,
		Dist:          BimodalHeavy,
		NumVMs:        4,
		Benchmarks:    []string{"canneal", "streamcluster"},
	}
	first, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var back Config
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("config re-encoding drifted:\nfirst:  %s\nsecond: %s", first, second)
	}
	if !strings.Contains(string(first), `"dist":"bimodal-heavy"`) {
		t.Fatalf("distribution not name-encoded: %s", first)
	}
	var bad Config
	if err := json.Unmarshal([]byte(`{"platform":{"name":"A","m":2,"c":8,"b":8,"cmin":1,"bmin":1},"target_ref_util":1,"dist":3}`), &bad); err == nil {
		t.Error("numeric distribution encoding accepted")
	}
}

// TestAnalyticProfilesMatchProfile is the oracle for the cross-taskset
// profile memo: it holds the 13 benchmarks on each evaluation platform,
// each table equal bit for bit to a fresh parsec Profile; a taskset
// generated through it equals, bit for bit, one generated on a copy of the
// platform under another name, which the memo does not serve; and writing
// to a generated task's table leaves the memo untouched.
func TestAnalyticProfilesMatchProfile(t *testing.T) {
	plats := []model.Platform{model.PlatformA, model.PlatformB, model.PlatformC}
	if got, want := len(analyticProfiles), len(plats)*len(parsec.All); got != want {
		t.Fatalf("memo holds %d profiles, want %d", got, want)
	}
	sameTable := func(a, b *model.ResourceTable, p model.Platform) bool {
		for c := p.Cmin; c <= p.C; c++ {
			for b2 := p.Bmin; b2 <= p.B; b2++ {
				if math.Float64bits(a.At(c, b2)) != math.Float64bits(b.At(c, b2)) {
					return false
				}
			}
		}
		return true
	}
	for _, p := range plats {
		for _, bm := range parsec.All {
			if !sameTable(analyticProfiles[profileKey{bm, p}], bm.Profile(p), p) {
				t.Fatalf("memoized %s profile on platform %s differs from Profile", bm.Name, p.Name)
			}
		}
		renamed := p
		renamed.Name += "-custom"
		for seed := int64(1); seed <= 5; seed++ {
			cfg := Config{Platform: p, TargetRefUtil: 1.5, Dist: BimodalMedium}
			memo := gen(t, cfg, seed)
			cfg.Platform = renamed
			fresh := gen(t, cfg, seed)
			mt, ft := memo.Tasks(), fresh.Tasks()
			if len(mt) != len(ft) {
				t.Fatalf("platform %s seed %d: %d tasks through the memo, %d without", p.Name, seed, len(mt), len(ft))
			}
			for i := range mt {
				if math.Float64bits(mt[i].Period) != math.Float64bits(ft[i].Period) || !sameTable(mt[i].WCET, ft[i].WCET, p) {
					t.Fatalf("platform %s seed %d: task %s differs through the memo", p.Name, seed, mt[i].ID)
				}
			}
			for _, task := range mt {
				task.WCET.Scale(2)
			}
		}
		for _, bm := range parsec.All {
			if !sameTable(analyticProfiles[profileKey{bm, p}], bm.Profile(p), p) {
				t.Fatalf("writing a generated task's table changed the memoized %s profile", bm.Name)
			}
		}
	}
}
