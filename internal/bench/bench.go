// Package bench is the repository's macro-benchmark harness: a fixed suite
// of seeded workloads measuring the hot paths every experiment leans on —
// the hypervisor simulator's event loop, the existing CSA's budget-table
// derivation, each allocator's end-to-end Allocate cost, and the
// schedulability sweep's taskset throughput.
//
// Where an optimization kept its pre-optimization reference implementation
// (the simulator's linear dispatch, the minimum-budget bisection)
// the suite runs both and reports the speedup, so every committed
// BENCH_*.json carries its own before/after evidence. Workloads are seeded
// and fixed; throughput values drift with the machine but the benchmark
// names and JSON schema are stable, which is what CI's bench-smoke step
// checks against the committed baseline.
package bench

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Schema identifies the report layout. Bump only when the JSON structure
// changes incompatibly; CI diffs committed baselines against fresh runs.
const Schema = "vc2m-bench/v1"

// Options configures a suite run.
type Options struct {
	// Quick shrinks every workload to smoke-test size (CI's bench-smoke
	// step); values are then meaningless as baselines but the schema is
	// identical.
	Quick bool
	// Runs is the number of repetitions per measurement; the median is
	// reported. 0 defaults to 3 (1 under Quick).
	Runs int
	// Parallel is the worker count for the sweep benchmark's parallel
	// side; 0 defaults to runtime.NumCPU().
	Parallel int
	// Only, when non-empty, restricts the run to benchmarks whose names
	// start with this prefix (e.g. "churn" runs just the sustained-churn
	// pair). A report produced under Only is a subset and will not pass a
	// schema check against a full-suite baseline.
	Only string
}

func (o Options) withDefaults() Options {
	if o.Runs <= 0 {
		if o.Quick {
			o.Runs = 1
		} else {
			o.Runs = 3
		}
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.NumCPU()
	}
	return o
}

// Baseline is the reference implementation's measurement for a benchmark
// that has one.
type Baseline struct {
	// Name identifies the reference implementation (e.g. "linear-dispatch").
	Name string `json:"name"`
	// Value is the reference throughput in the benchmark's metric.
	Value float64 `json:"value"`
}

// Result is one benchmark's measurement.
type Result struct {
	// Name identifies the benchmark, e.g. "csa/min-budget".
	Name string `json:"name"`
	// Metric names the unit of Value, e.g. "events_per_sec".
	Metric string `json:"metric"`
	// Value is the optimized path's throughput (higher is better).
	Value float64 `json:"value"`
	// Runs is the number of repetitions the median was taken over.
	Runs int `json:"runs"`
	// Baseline, when present, is the reference implementation's
	// throughput in the same metric.
	Baseline *Baseline `json:"baseline,omitempty"`
	// Speedup is Value / Baseline.Value, present only with a baseline.
	Speedup float64 `json:"speedup,omitempty"`
	// Notes carries workload parameters worth keeping with the number.
	Notes string `json:"notes,omitempty"`
}

// Report is a full suite run — the BENCH_<stamp>.json payload.
type Report struct {
	Schema    string   `json:"schema"`
	Stamp     string   `json:"stamp"`
	GoVersion string   `json:"go"`
	NumCPU    int      `json:"num_cpu"`
	Quick     bool     `json:"quick"`
	Results   []Result `json:"results"`
}

// RunAll executes the whole suite and returns the report (without a stamp;
// the caller sets it, keeping wall-clock reads out of the library).
func RunAll(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	rep := &Report{
		Schema:    Schema,
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Quick:     opts.Quick,
	}
	single := func(fn func(Options) (Result, error)) func(Options) ([]Result, error) {
		return func(o Options) ([]Result, error) {
			r, err := fn(o)
			if err != nil {
				return nil, err
			}
			return []Result{r}, nil
		}
	}
	groups := []struct {
		prefix string // name prefix of every Result the group produces
		fn     func(Options) ([]Result, error)
	}{
		{"csa/", single(benchCSAMinBudget)},
		{"hypersim/", single(benchHypersimEvents)},
		{"experiment/", single(benchSweep)},
		{"alloc/", benchAllocators},
		{"churn/", benchChurn},
	}
	for _, g := range groups {
		if opts.Only != "" && !strings.HasPrefix(g.prefix, opts.Only) && !strings.HasPrefix(opts.Only, g.prefix) {
			continue
		}
		results, err := g.fn(opts)
		if err != nil {
			return nil, err
		}
		for _, r := range results {
			if opts.Only == "" || strings.HasPrefix(r.Name, opts.Only) {
				rep.Results = append(rep.Results, r)
			}
		}
	}
	return rep, nil
}

// medianSeconds runs fn `runs` times and returns the median wall time in
// seconds. fn must perform identical work each call.
func medianSeconds(runs int, fn func()) float64 {
	secs := make([]float64, runs)
	for i := range secs {
		start := time.Now() //vc2m:wallclock benchmark timing
		fn()
		secs[i] = time.Since(start).Seconds() //vc2m:wallclock benchmark timing
	}
	sort.Float64s(secs)
	return secs[len(secs)/2]
}

// throughput converts an operation count and a wall time to ops/sec,
// guarding against a timer too coarse to observe the work.
func throughput(ops float64, secs float64) float64 {
	if secs <= 0 {
		return 0
	}
	return ops / secs
}

// checksumMismatch formats the error used by benchmarks that double-check
// the optimized path against its reference implementation.
func checksumMismatch(name string, got, want float64) error {
	return fmt.Errorf("bench %s: optimized and reference paths disagree: %v vs %v", name, got, want)
}
