// Package experiment contains the harnesses that regenerate the paper's
// evaluation artifacts: the schedulability curves of Figures 2 and 3, the
// running-time curves of Figure 4, the overhead measurements of Tables 1
// and 2, and the Section 3.3 WCET-isolation study. Each harness prints the
// same rows/series the paper reports; EXPERIMENTS.md records paper-versus-
// measured values.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"vc2m/internal/alloc"
	"vc2m/internal/metrics"
	"vc2m/internal/model"
	"vc2m/internal/obs"
	"vc2m/internal/provenance"
	"vc2m/internal/rngutil"
	"vc2m/internal/workload"
)

// Counter names recorded per solution when SchedConfig.CollectMetrics is
// set.
const (
	// MetricPoints counts utilization points completed; MetricTasksets
	// counts tasksets analyzed.
	MetricPoints   = "experiment.points"
	MetricTasksets = "experiment.tasksets"
)

// SchedConfig parameterizes a schedulability experiment (Sections 5.2-5.3).
type SchedConfig struct {
	// Platform is the hardware configuration (A, B or C).
	Platform model.Platform
	// Dist is the task-utilization distribution.
	Dist workload.Distribution
	// UtilMin, UtilMax and UtilStep define the x-axis sweep; zero values
	// default to the paper's 0.1..2.0 step 0.05.
	UtilMin, UtilMax, UtilStep float64
	// TasksetsPerPoint is the number of independent tasksets per
	// utilization (50 in the paper); zero defaults to 50.
	TasksetsPerPoint int
	// Seed makes the experiment reproducible.
	Seed int64
	// Solutions are the allocators to compare; nil defaults to the five
	// solutions of the paper's evaluation.
	Solutions []alloc.Allocator
	// Progress, if non-nil, is called after each utilization point.
	Progress func(done, total int)
	// Parallel runs up to this many tasksets concurrently per utilization
	// point (0 or 1 = serial). Results are bit-identical to the serial
	// run — every taskset's RNG streams are split off sequentially before
	// the workers start — but the per-taskset running times (Figure 4's
	// data) include scheduler contention, so keep Parallel at 1 when
	// measuring running time.
	Parallel int
	// CollectMetrics attaches a search-effort recorder to every solution
	// that supports one (alloc.MetricsSetter); each series then carries a
	// metrics snapshot in SchedSeries.Metrics. Counters are deterministic
	// across runs regardless of Parallel.
	CollectMetrics bool
	// Provenance, when non-nil, records one decision per (taskset,
	// solution) case — accepted or rejected, with the rejection's binding
	// resources taken from the allocator's diagnosis. Decisions are
	// recorded in the serial reduction loop, so the stream is
	// deterministic at any Parallel. Nil disables recording.
	Provenance *provenance.Recorder
	// ProvenanceLabel prefixes every recorded subject (e.g. a figure
	// name) so multiple sweeps can share one recorder.
	ProvenanceLabel string
	// Context, when non-nil, makes the sweep interruptible: it is polled
	// before each utilization point, and once canceled the sweep stops and
	// RunSchedulability returns the points completed so far TOGETHER WITH
	// the context's error — callers flush the partial curves instead of
	// discarding completed work. It is also threaded into every
	// context-aware solution, so the in-flight point aborts promptly.
	//vc2m:ctxfield optional cancellation hook on a config struct; nil runs to completion
	Context context.Context
	// Span, when non-nil, is the parent under which one experiment.point
	// wall-clock span is opened per utilization point (annotated with the
	// utilization and taskset count). Spans stay at point granularity —
	// per-taskset spans would swamp the trace — and never influence the
	// sweep's results. Nil disables at no cost.
	Span *obs.Span
}

// withDefaults fills the paper's defaults. The utilization range defaults
// as a unit — UtilMin defaults to 0.1 only when UtilMax is also unset — so
// that an explicit sweep starting at 0 (UtilMin: 0, UtilMax: x) is
// representable and not silently rewritten.
func (c SchedConfig) withDefaults() SchedConfig {
	if c.UtilMin == 0 && c.UtilMax == 0 { //vc2m:floateq unset-config sentinel
		c.UtilMin = 0.1
	}
	if c.UtilMax == 0 { //vc2m:floateq unset-config sentinel
		c.UtilMax = 2.0
	}
	if c.UtilStep == 0 { //vc2m:floateq unset-config sentinel
		c.UtilStep = 0.05
	}
	if c.TasksetsPerPoint == 0 {
		c.TasksetsPerPoint = 50
	}
	if c.Solutions == nil {
		c.Solutions = alloc.PaperSolutions()
	}
	return c
}

// utilGrid returns the utilization sweep min, min+step, ..., up to and
// including max (within a relative tolerance for the endpoint). Each point
// is generated as min + i*step rather than by repeated addition, so the
// grid carries one rounding error per point instead of an accumulated one
// — with step 0.025, accumulation followed by rounding to two decimals
// used to collapse neighbouring points. The conversion rounds the product
// before the add, so no compiler fuses the two into one FMA.
func utilGrid(min, max, step float64) []float64 {
	n := int(math.Floor((max-min)/step + 1e-9))
	if n < 0 {
		return nil
	}
	out := make([]float64, n+1)
	for i := range out {
		out[i] = min + float64(float64(i)*step)
	}
	return out
}

// SchedPoint is one (utilization, solution) measurement.
type SchedPoint struct {
	// Util is the taskset reference utilization (x-axis).
	Util float64
	// Fraction is the fraction of schedulable tasksets (Figures 2-3).
	Fraction float64
	// AvgSeconds is the mean allocator running time (Figure 4).
	AvgSeconds float64
}

// SchedSeries is one solution's curve.
type SchedSeries struct {
	Solution string
	Points   []SchedPoint
	// Metrics is the solution's search-effort snapshot; populated only
	// when SchedConfig.CollectMetrics is set and the solution supports
	// recording.
	Metrics metrics.Snapshot
}

// SchedResult holds a full schedulability experiment.
type SchedResult struct {
	Platform model.Platform
	Dist     workload.Distribution
	Series   []SchedSeries
	// Tasksets is the total number of tasksets analyzed.
	Tasksets int
}

// RunSchedulability executes the experiment: for each utilization point it
// generates TasksetsPerPoint tasksets and analyzes each with every
// solution, recording the schedulable fraction and the mean analysis time.
// Workload generation draws from a dedicated RNG stream per taskset, so
// every solution sees identical tasksets.
func RunSchedulability(cfg SchedConfig) (*SchedResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Platform.Validate(); err != nil {
		return nil, err
	}
	if cfg.UtilStep < 0 {
		return nil, fmt.Errorf("experiment: negative UtilStep %v", cfg.UtilStep)
	}
	if cfg.UtilMax < cfg.UtilMin {
		return nil, fmt.Errorf("experiment: UtilMax %v below UtilMin %v", cfg.UtilMax, cfg.UtilMin)
	}

	utils := utilGrid(cfg.UtilMin, cfg.UtilMax, cfg.UtilStep)

	res := &SchedResult{Platform: cfg.Platform, Dist: cfg.Dist}
	recorders := make([]*metrics.Recorder, len(cfg.Solutions))
	for si, sol := range cfg.Solutions {
		res.Series = append(res.Series, SchedSeries{Solution: sol.Name()})
		if cfg.CollectMetrics {
			if ms, ok := sol.(alloc.MetricsSetter); ok {
				recorders[si] = metrics.New()
				ms.SetMetrics(recorders[si])
			}
		}
		if cfg.Context != nil {
			if cs, ok := sol.(alloc.ContextSetter); ok {
				cs.SetContext(cfg.Context)
			}
		}
	}

	workers := cfg.Parallel
	if workers < 1 {
		workers = 1
	}

	root := rngutil.New(cfg.Seed)

	// partial snapshots whatever metrics exist and returns the completed
	// points together with the interruption error, so callers can flush
	// finished work (an interrupted 40-point sweep still yields its
	// completed curves) instead of discarding it.
	partial := func(cause error) (*SchedResult, error) {
		for si, rec := range recorders {
			if rec != nil {
				res.Series[si].Metrics = rec.Snapshot()
			}
		}
		return res, fmt.Errorf("experiment: sweep interrupted after %d of %d utilization points: %w",
			res.minPoints(), len(utils), cause)
	}

	for ui, u := range utils {
		if cfg.Context != nil {
			if err := cfg.Context.Err(); err != nil {
				return partial(err)
			}
		}
		// Split every taskset's RNG streams up front, in order, so the
		// generated workloads are independent of the worker count.
		type job struct {
			gen   *rngutil.RNG
			seeds []int64
			oks   []bool
			secs  []float64
			errs  []error
			err   error
		}
		psp := cfg.Span.Child(obs.StageSweepPoint)
		psp.SetFloat("util", u)
		psp.SetInt("tasksets", int64(cfg.TasksetsPerPoint))
		jobs := make([]job, cfg.TasksetsPerPoint)
		for ts := range jobs {
			genRNG := root.Split()
			allocRNG := root.Split()
			seeds := make([]int64, len(cfg.Solutions))
			for si := range seeds {
				seeds[si] = allocRNG.Int63()
			}
			jobs[ts] = job{gen: genRNG, seeds: seeds}
		}

		// Each worker writes only its own job's slots; the reduction below
		// runs serially in taskset order, so counts and float sums are
		// identical for every worker count.
		runIndexed(len(jobs), workers, func(ts int) {
			j := &jobs[ts]
			sys, err := workload.Generate(workload.Config{
				Platform:      cfg.Platform,
				TargetRefUtil: u,
				Dist:          cfg.Dist,
			}, j.gen)
			if err != nil {
				j.err = err
				return
			}
			j.oks = make([]bool, len(cfg.Solutions))
			j.secs = make([]float64, len(cfg.Solutions))
			j.errs = make([]error, len(cfg.Solutions))
			for si, sol := range cfg.Solutions {
				start := time.Now() //vc2m:wallclock Figure 4 measures solution wall time
				_, err := sol.Allocate(sys, rngutil.New(j.seeds[si]))
				j.secs[si] = time.Since(start).Seconds() //vc2m:wallclock
				j.oks[si] = err == nil
				j.errs[si] = err
			}
		})
		// A cancellation mid-point leaves some allocations aborted with the
		// context's error; discard the incomplete point rather than reduce
		// corrupted fractions into the curves.
		if cfg.Context != nil {
			if err := cfg.Context.Err(); err != nil {
				psp.End()
				return partial(err)
			}
		}
		schedulable := make([]int, len(cfg.Solutions))
		elapsed := make([]float64, len(cfg.Solutions))
		for ts := range jobs {
			if jobs[ts].err != nil {
				psp.End()
				return nil, jobs[ts].err
			}
			for si := range cfg.Solutions {
				if jobs[ts].oks[si] {
					schedulable[si]++
				}
				elapsed[si] += jobs[ts].secs[si]
				recordSweepCase(cfg, u, ts, cfg.Solutions[si].Name(), jobs[ts].errs[si])
			}
		}
		res.Tasksets += cfg.TasksetsPerPoint

		for si := range cfg.Solutions {
			res.Series[si].Points = append(res.Series[si].Points, SchedPoint{
				Util:       u,
				Fraction:   float64(schedulable[si]) / float64(cfg.TasksetsPerPoint),
				AvgSeconds: elapsed[si] / float64(cfg.TasksetsPerPoint),
			})
			if rec := recorders[si]; rec != nil {
				rec.Inc(MetricPoints)
				rec.Add(MetricTasksets, int64(cfg.TasksetsPerPoint))
			}
		}
		psp.End()
		if cfg.Progress != nil {
			cfg.Progress(ui+1, len(utils))
		}
	}
	for si, rec := range recorders {
		if rec != nil {
			res.Series[si].Metrics = rec.Snapshot()
		}
	}
	return res, nil
}

// recordSweepCase records one (taskset, solution) verdict on the sweep's
// provenance recorder (no-op when none is configured). A rejection carries
// the allocator's binding-resource diagnosis; an undiagnosed
// not-schedulable error falls back to CPU, the resource every infeasible
// packing is short of.
func recordSweepCase(cfg SchedConfig, util float64, ts int, solution string, err error) {
	if cfg.Provenance == nil {
		return
	}
	label := cfg.ProvenanceLabel
	if label != "" && !strings.HasSuffix(label, "/") {
		label += "/"
	}
	d := provenance.Decision{
		Stage: provenance.StageSweep, Kind: provenance.KindTaskset,
		Subject:  fmt.Sprintf("%su=%.2f/ts=%d", label, util, ts),
		Target:   solution,
		Value:    util,
		Accepted: err == nil,
	}
	if err != nil {
		d.Reason = err.Error()
		if re, ok := alloc.AsRejection(err); ok {
			d.Violated = re.Violated
		} else if errors.Is(err, model.ErrNotSchedulable) {
			d.Violated = []provenance.Resource{provenance.CPU}
		}
	}
	cfg.Provenance.Record(d)
}

// MetricsTable renders every series' search-effort snapshot as aligned
// text, one block per solution; empty when no metrics were collected.
func (r *SchedResult) MetricsTable() string {
	var b strings.Builder
	for _, s := range r.Series {
		if s.Metrics.Empty() {
			continue
		}
		fmt.Fprintf(&b, "## %s\n%s", s.Solution, s.Metrics.Table())
	}
	return b.String()
}

// Knee returns the largest utilization at which the solution still
// schedules every taskset (the point "after which tasksets start to become
// unschedulable" in Section 5.2), or 0 if it never schedules everything.
func (r *SchedResult) Knee(solution string) float64 {
	for _, s := range r.Series {
		if s.Solution != solution {
			continue
		}
		knee := 0.0
		for _, p := range s.Points {
			if p.Fraction >= 1-1e-9 {
				knee = p.Util
			} else {
				break
			}
		}
		return knee
	}
	return 0
}

// FractionTable renders the schedulable-fraction series as an aligned text
// table, one row per utilization — the data behind Figures 2 and 3.
func (r *SchedResult) FractionTable() string {
	return r.table(func(p SchedPoint) string { return fmt.Sprintf("%.2f", p.Fraction) })
}

// RuntimeTable renders the mean running-time series in milliseconds, the
// data behind Figure 4: a taskset's analysis takes well under a
// millisecond, which seconds at four decimals would print as 0.0000.
func (r *SchedResult) RuntimeTable() string {
	return r.table(func(p SchedPoint) string { return fmt.Sprintf("%.4f", p.AvgSeconds*1e3) })
}

func (r *SchedResult) table(cell func(SchedPoint) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# platform %s, %s distribution\n", r.Platform.Name, r.Dist)
	fmt.Fprintf(&b, "%-6s", "util")
	for _, s := range r.Series {
		fmt.Fprintf(&b, " | %-38s", s.Solution)
	}
	b.WriteByte('\n')
	for i := 0; i < r.minPoints(); i++ {
		fmt.Fprintf(&b, "%-6.2f", r.Series[0].Points[i].Util)
		for _, s := range r.Series {
			fmt.Fprintf(&b, " | %-38s", cell(s.Points[i]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// minPoints returns the shortest series length — the number of rows every
// series can contribute to. Hand-assembled results may be ragged; indexing
// all series by the first one's length used to panic on them.
func (r *SchedResult) minPoints() int {
	if len(r.Series) == 0 {
		return 0
	}
	min := len(r.Series[0].Points)
	for _, s := range r.Series[1:] {
		if len(s.Points) < min {
			min = len(s.Points)
		}
	}
	return min
}

// FractionSeries converts the result into plottable (x, y) series of
// schedulable fractions, one per solution — Figures 2 and 3's curves.
func (r *SchedResult) FractionSeries() []struct {
	Name string
	X, Y []float64
} {
	out := make([]struct {
		Name string
		X, Y []float64
	}, len(r.Series))
	for i, s := range r.Series {
		out[i].Name = s.Solution
		for _, p := range s.Points {
			out[i].X = append(out[i].X, p.Util)
			out[i].Y = append(out[i].Y, p.Fraction)
		}
	}
	return out
}

// SolutionNames returns the series names in order.
func (r *SchedResult) SolutionNames() []string {
	out := make([]string, len(r.Series))
	for i, s := range r.Series {
		out[i] = s.Solution
	}
	return out
}

// Summary reports, for each solution, the knee and the weighted
// schedulability area (the fraction of all analyzed tasksets that were
// schedulable), sorted by area descending — a compact comparison used by
// the commands.
func (r *SchedResult) Summary() string {
	type row struct {
		name string
		knee float64
		area float64
	}
	var rows []row
	for _, s := range r.Series {
		var area float64
		for _, p := range s.Points {
			area += p.Fraction
		}
		if len(s.Points) > 0 {
			area /= float64(len(s.Points))
		}
		rows = append(rows, row{s.Solution, r.Knee(s.Solution), area})
	}
	sort.SliceStable(rows, func(a, b int) bool { return rows[a].area > rows[b].area })
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %-8s %s\n", "solution", "knee", "mean fraction")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-40s %-8.2f %.3f\n", row.name, row.knee, row.area)
	}
	return b.String()
}
