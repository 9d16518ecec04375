// Package workload generates the random real-time tasksets used in the
// paper's schedulability evaluation (Section 5.1).
//
// Each taskset contains implicit-deadline periodic tasks with harmonic
// periods "uniformly distributed" in [100, 1100] ms. Harmonic periods are
// produced the standard way: a base period is drawn uniformly from
// [100, 137.5] and each task picks a period base*2^j with j in {0,1,2,3},
// so every period lies in [100, 1100] and every pair divides.
//
// Task utilizations follow one of four distributions (uniform [0.1, 0.4],
// or bimodal light/medium/heavy mixing [0.1, 0.4] and [0.5, 0.9]). The
// drawn utilization defines the task's maximum WCET e^max = u * p (its
// WCET with the cache disabled and worst-case bandwidth). A PARSEC
// benchmark profile is then drawn uniformly for the task; its reference
// WCET is e* = e^max / s^max and its WCET table e(c,b) = e* * s(c,b),
// preserving the benchmark's sensitivity to cache and BW. Tasks are added
// until the taskset's total reference utilization reaches the target.
package workload

import (
	"fmt"

	"vc2m/internal/model"
	"vc2m/internal/parsec"
	"vc2m/internal/rngutil"
)

// Distribution selects the task-utilization distribution.
type Distribution int

const (
	// Uniform draws utilizations uniformly from [0.1, 0.4].
	Uniform Distribution = iota
	// BimodalLight mixes [0.1, 0.4] and [0.5, 0.9] with probabilities 8/9
	// and 1/9.
	BimodalLight
	// BimodalMedium mixes with probabilities 6/9 and 3/9.
	BimodalMedium
	// BimodalHeavy mixes with probabilities 4/9 and 5/9.
	BimodalHeavy
)

// String returns the distribution's name as used in the figures.
func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case BimodalLight:
		return "bimodal-light"
	case BimodalMedium:
		return "bimodal-medium"
	case BimodalHeavy:
		return "bimodal-heavy"
	default:
		return "unknown"
	}
}

// ParseDistribution maps a name ("uniform", "light", "medium", "heavy",
// or the full "bimodal-*" forms) to a Distribution.
func ParseDistribution(name string) (Distribution, error) {
	switch name {
	case "uniform":
		return Uniform, nil
	case "light", "bimodal-light":
		return BimodalLight, nil
	case "medium", "bimodal-medium":
		return BimodalMedium, nil
	case "heavy", "bimodal-heavy":
		return BimodalHeavy, nil
	}
	return 0, fmt.Errorf("workload: unknown distribution %q", name)
}

// MarshalJSON renders the distribution as its figure name, the same
// token ParseDistribution accepts, so generation specs submitted to the
// allocation server read the way the flags do.
func (d Distribution) MarshalJSON() ([]byte, error) {
	name := d.String()
	if name == "unknown" {
		return nil, fmt.Errorf("workload: cannot marshal distribution %d", int(d))
	}
	return []byte(`"` + name + `"`), nil
}

// UnmarshalJSON parses any name ParseDistribution accepts.
func (d *Distribution) UnmarshalJSON(data []byte) error {
	if len(data) < 2 || data[0] != '"' || data[len(data)-1] != '"' {
		return fmt.Errorf("workload: distribution must be a JSON string, got %s", data)
	}
	v, err := ParseDistribution(string(data[1 : len(data)-1]))
	if err != nil {
		return err
	}
	*d = v
	return nil
}

// Sample draws one utilization from the distribution.
func (d Distribution) Sample(rng *rngutil.RNG) float64 {
	switch d {
	case Uniform:
		return rng.Uniform(0.1, 0.4)
	case BimodalLight:
		return rng.Bimodal(0.1, 0.4, 0.5, 0.9, 8.0/9.0)
	case BimodalMedium:
		return rng.Bimodal(0.1, 0.4, 0.5, 0.9, 6.0/9.0)
	case BimodalHeavy:
		return rng.Bimodal(0.1, 0.4, 0.5, 0.9, 4.0/9.0)
	default:
		panic("workload: unknown distribution")
	}
}

// Config parameterizes taskset generation. The JSON tags are the wire
// schema generation specs travel in when submitted to the allocation
// server; defaults (zero values) are omitted so specs stay minimal.
type Config struct {
	// Platform the tasks' WCET tables are generated for.
	Platform model.Platform `json:"platform"`
	// TargetRefUtil is the taskset's target total reference utilization
	// (the x-axis of Figures 2 and 3).
	TargetRefUtil float64 `json:"target_ref_util"`
	// Dist is the task-utilization distribution (a name on the wire,
	// e.g. "uniform" or "bimodal-light").
	Dist Distribution `json:"dist"`
	// NumVMs is the number of VMs tasks are spread across (round-robin).
	// Zero defaults to 2 — a minimal consolidation scenario. The VM count
	// does not affect the flattening or overhead-free solutions (their
	// VCPU bandwidth equals taskset utilization regardless of grouping),
	// but each extra VM multiplies the VCPU count and therefore the
	// abstraction overhead paid by the existing-CSA solutions.
	NumVMs int `json:"num_vms,omitempty"`
	// MaxTasks caps the number of generated tasks as a safety valve; zero
	// defaults to 1000.
	MaxTasks int `json:"max_tasks,omitempty"`
	// Benchmarks restricts generation to the named PARSEC profiles; empty
	// uses the full suite.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// UseTraceProfiles derives WCET tables by trace-driven measurement on
	// the cache simulator (parsec.TraceProfile) instead of the analytic
	// model — the "obtained by measurement on vC2M" path. Generation is
	// slower; profiles are computed once per benchmark and reused.
	UseTraceProfiles bool `json:"use_trace_profiles,omitempty"`
	// TraceOps overrides the trace length when UseTraceProfiles is set.
	TraceOps int `json:"trace_ops,omitempty"`
}

// periodBaseLo/periodBaseHi bound the harmonic base period so that
// base * 2^3 stays within the paper's [100, 1100] ms period range.
const (
	periodBaseLo = 100.0
	periodBaseHi = 137.5
	periodLevels = 4
)

// profileKey names one analytic profile: a benchmark on a platform.
type profileKey struct {
	bm   parsec.Benchmark
	plat model.Platform
}

// analyticProfiles holds the analytic profile of every benchmark in
// parsec.All on each of the three evaluation platforms (39 tables), built
// once so that Generate does not recompute them for every taskset. The
// tables are read-only: Generate gives each task a scaled clone. Other
// platforms and trace-driven profiles are computed per taskset.
var analyticProfiles = func() map[profileKey]*model.ResourceTable {
	plats := []model.Platform{model.PlatformA, model.PlatformB, model.PlatformC}
	m := make(map[profileKey]*model.ResourceTable, len(plats)*len(parsec.All))
	for _, p := range plats {
		for _, bm := range parsec.All {
			m[profileKey{bm, p}] = bm.Profile(p)
		}
	}
	return m
}()

// Generate produces a random taskset per the configuration. The returned
// system always validates; generation fails only for invalid configuration.
func Generate(cfg Config, rng *rngutil.RNG) (*model.System, error) {
	if err := cfg.Platform.Validate(); err != nil {
		return nil, err
	}
	if cfg.TargetRefUtil <= 0 {
		return nil, fmt.Errorf("workload: target utilization %v, need > 0", cfg.TargetRefUtil)
	}
	numVMs := cfg.NumVMs
	if numVMs <= 0 {
		numVMs = 2
	}
	maxTasks := cfg.MaxTasks
	if maxTasks <= 0 {
		maxTasks = 1000
	}
	suite := parsec.All
	if len(cfg.Benchmarks) > 0 {
		suite = suite[:0:0]
		for _, name := range cfg.Benchmarks {
			bm, err := parsec.ByName(name)
			if err != nil {
				return nil, err
			}
			suite = append(suite, bm)
		}
	}

	base := rng.Uniform(periodBaseLo, periodBaseHi)

	vms := make([]*model.VM, numVMs)
	for i := range vms {
		vms[i] = &model.VM{ID: fmt.Sprintf("vm%d", i)}
	}

	// Per-benchmark slowdown profiles, computed once per taskset unless
	// analyticProfiles already holds them. The analytic model is the
	// default; trace-driven profiles replay a synthetic access stream
	// through the cache simulator instead.
	var profiles map[string]*model.ResourceTable
	profileFor := func(bm parsec.Benchmark) (*model.ResourceTable, error) {
		if p, ok := analyticProfiles[profileKey{bm, cfg.Platform}]; ok && !cfg.UseTraceProfiles {
			return p, nil
		}
		if p, ok := profiles[bm.Name]; ok {
			return p, nil
		}
		var p *model.ResourceTable
		if cfg.UseTraceProfiles {
			var err error
			p, err = bm.TraceProfile(cfg.Platform, parsec.TraceConfig{
				Ops:  cfg.TraceOps,
				Seed: 1,
			})
			if err != nil {
				return nil, err
			}
		} else {
			p = bm.Profile(cfg.Platform)
		}
		if profiles == nil {
			profiles = make(map[string]*model.ResourceTable, len(suite))
		}
		profiles[bm.Name] = p
		return p, nil
	}

	var totalRef float64
	for n := 0; totalRef < cfg.TargetRefUtil && n < maxTasks; n++ {
		period := base * float64(int(1)<<uint(rng.Intn(periodLevels)))
		util := cfg.Dist.Sample(rng)
		bm := suite[rng.Intn(len(suite))]

		eMax := util * period
		eRef := eMax / bm.MaxSlowdown(cfg.Platform)
		prof, err := profileFor(bm)
		if err != nil {
			return nil, err
		}
		vmIdx := n % numVMs
		task := &model.Task{
			ID:        fmt.Sprintf("t%d", n),
			VM:        vms[vmIdx].ID,
			Period:    period,
			WCET:      prof.Clone().Scale(eRef),
			Benchmark: bm.Name,
		}
		vms[vmIdx].Tasks = append(vms[vmIdx].Tasks, task)
		totalRef += eRef / period
	}

	// Drop VMs that received no tasks (tiny targets).
	kept := vms[:0]
	for _, vm := range vms {
		if len(vm.Tasks) > 0 {
			kept = append(kept, vm)
		}
	}
	return &model.System{Platform: cfg.Platform, VMs: kept}, nil
}
