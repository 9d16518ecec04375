package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"vc2m/internal/alloc"
	"vc2m/internal/csa"
	"vc2m/internal/hypersim"
	"vc2m/internal/obs"
)

// metricSpec is one reported metric. BENCHMARK.json lists the same
// metrics; TestBenchmarkJSONMatchesSpecs keeps the two in step.
type metricSpec struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd are the user-visible metrics, reported per workload from the
// untraced reps and host-normalized. The bounds are what the runs on the
// shared 2-vCPU reference host support: there, host normalization leaves a
// spread of about 2-11% across seeds in timing metrics, the pooled p99
// spreads widest, and retained heap moves only with the inputs (churn's
// repacks make its report sizes heavy-tailed). Set-up time takes the
// largest bound.
var endToEnd = []metricSpec{
	{"throughput_per_s", "1/s", "higher", 0.20},
	{"latency_p50_ms", "ms", "lower", 0.20},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.20},
	{"retained_heap_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's layer metrics. Times and counts are per
// timed request of the traced rep (a churn request carries eight events,
// a sweep request is a whole sweep). Layers that run on every workload
// report milliseconds; layers only some workloads reach report their share
// of the replay's wall time, which is 0 where the layer never runs.
var perLayer = []metricSpec{
	{"model.decode_ms", "ms", "lower", 0},
	{"alloc.vmlevel_ms", "ms", "lower", 0},
	{"csa.derive_ms", "ms", "lower", 0},
	{"alloc.hyper_ms", "ms", "lower", 0},
	{"report.build_ms", "ms", "lower", 0},
	{"report.encode_ms", "ms", "lower", 0},
	{"server.submit_ms", "ms", "lower", 0},
	{"server.wait_ms", "ms", "lower", 0},
	{"server.fetch_ms", "ms", "lower", 0},
	{"replay_ms", "ms", "lower", 0},
	{"hypersim.run_share", "%", "lower", 0},
	{"alloc.incremental_share", "%", "lower", 0},
	{"experiment.solution_share.baseline", "%", "lower", 0},
	{"experiment.solution_share.evenly-partition", "%", "lower", 0},
	{"experiment.solution_share.heuristic-existing", "%", "lower", 0},
	{"experiment.solution_share.heuristic-overheadfree", "%", "lower", 0},
	{"experiment.solution_share.heuristic-flattening", "%", "lower", 0},
	{"csa.derive_calls", "count", "lower", 0},
	{"csa.sbf.evals", "count", "lower", 0},
	{"csa.minbudget.bisect_iters", "count", "lower", 0},
	{"alloc.hyper.permutations", "count", "lower", 0},
	{"alloc.hyper.m_tried", "count", "lower", 0},
	{"alloc.schedulable_ratio", "ratio", "higher", 0},
	{"alloc.incremental.repack_ratio", "ratio", "lower", 0},
	{"alloc.incremental.admit_ratio", "ratio", "higher", 0},
	{"hypersim.engine_steps", "count", "lower", 0},
	{"server.request_kb", "kB", "lower", 0},
	{"server.report_kb", "kB", "lower", 0},
	{"server.retained_kb_per_run", "kB", "lower", 0},
	{"runtime.alloc_mb_per_op", "MB", "lower", 0},
	{"runtime.gc_cpu_share", "ratio", "lower", 0},
	{"obs.overhead_ratio", "ratio", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"host.probe_ms", "ms", "lower", 0},
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile interpolates linearly between the order statistics of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) computes them (its default
// "exclusive" method), so spreads read the same as in external checks.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// repValues computes one rep's end-to-end metrics, scaled by scale (the
// rep's host factor, or 1 for raw values).
func repValues(r *repResult, scale float64) map[string]float64 {
	lat := make([]float64, len(r.LatencyMs))
	for i, l := range r.LatencyMs {
		lat[i] = l * scale
	}
	return map[string]float64{
		"throughput_per_s": float64(r.Units) / (r.WallS * scale),
		"latency_p50_ms":   percentile(lat, 50),
		"latency_p99_ms":   percentile(lat, 99),
		"cpu_ms_per_op":    r.CPUS * scale * 1000 / float64(r.Units),
		"retained_heap_mb": r.HeapMB,
		"setup_s":          r.SetupS * scale,
	}
}

// summarize reduces the reps to the end-to-end metrics: medians across
// reps, except latency percentiles, which pool every request of every rep.
func summarize(reps []*repResult, normalized bool) map[string]float64 {
	per := map[string][]float64{}
	var lat []float64
	for _, r := range reps {
		scale := 1.0
		if normalized {
			scale = r.Scale
		}
		for k, v := range repValues(r, scale) { //vc2m:ordered map-to-map append, one value per key
			per[k] = append(per[k], v)
		}
		for _, l := range r.LatencyMs {
			lat = append(lat, l*scale)
		}
	}
	out := map[string]float64{}
	for k, vs := range per { //vc2m:ordered map-to-map copy
		out[k] = median(vs)
	}
	out["latency_p50_ms"] = percentile(lat, 50)
	out["latency_p99_ms"] = percentile(lat, 99)
	return out
}

// spanTree indexes one workload's spans.
type spanTree struct {
	spans []obs.SpanRecord
	root  map[int]obs.SpanRecord // span ID -> its root span
}

// workloadSpans keeps the spans whose root carries workload=name.
func workloadSpans(all []obs.SpanRecord, name string) spanTree {
	byID := make(map[int]obs.SpanRecord, len(all))
	for _, s := range all {
		byID[s.ID] = s
	}
	t := spanTree{root: map[int]obs.SpanRecord{}}
	for _, s := range all {
		r := s
		for r.Parent >= 0 {
			p, ok := byID[r.Parent]
			if !ok {
				break
			}
			r = p
		}
		if attr(r, "workload") == name {
			t.spans = append(t.spans, s)
			t.root[s.ID] = r
		}
	}
	return t
}

func attr(s obs.SpanRecord, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Overlapping children count
// once, and a child running past its parent counts only up to the
// parent's end.
func selfTimes(spans []obs.SpanRecord) map[int]time.Duration {
	type interval struct{ from, to time.Time }
	children := map[int][]interval{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.Start.Add(s.Duration)})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		end := s.Start.Add(s.Duration)
		ivs := children[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].from.Before(ivs[b].from) })
		var covered time.Duration
		cur := s.Start // everything before cur is already accounted for
		for _, iv := range ivs {
			from, to := iv.from, iv.to
			if from.Before(cur) {
				from = cur
			}
			if to.After(end) {
				to = end
			}
			if to.After(from) {
				covered += to.Sub(from)
				cur = to
			}
		}
		out[s.ID] = s.Duration - covered
	}
	return out
}

// layerRow aggregates one span name.
type layerRow struct {
	name      string
	count     int
	self      time.Duration
	inclusive time.Duration
	selfs     []float64 // ms, for the p50
}

// layerRows aggregates the spans under roots named rootName by span name,
// and returns the rows (by total self time, descending) and the roots'
// total duration.
func layerRows(t spanTree, rootName string) ([]*layerRow, time.Duration) {
	self := selfTimes(t.spans)
	rows := map[string]*layerRow{}
	var total time.Duration
	for _, s := range t.spans {
		if t.root[s.ID].Name != rootName {
			continue
		}
		if s.Parent < 0 {
			total += s.Duration
		}
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			rows[s.Name] = r
		}
		r.count++
		r.self += self[s.ID]
		r.inclusive += s.Duration
		r.selfs = append(r.selfs, float64(self[s.ID])/1e6)
	}
	out := make([]*layerRow, 0, len(rows))
	for _, r := range rows { //vc2m:ordered rows are sorted below
		out = append(out, r)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].self != out[b].self {
			return out[a].self > out[b].self
		}
		return out[a].name < out[b].name
	})
	return out, total
}

// writeLayerTable prints count, total and p50 self time, and share of the
// roots' time, per layer.
func writeLayerTable(w io.Writer, title string, rows []*layerRow, total time.Duration) {
	fmt.Fprintf(w, "  %s (total %.1f ms)\n", title, float64(total)/1e6)
	fmt.Fprintf(w, "    %-44s %8s %12s %10s %7s\n", "layer", "count", "self ms", "p50 ms", "share")
	for _, r := range rows {
		share := 0.0
		if total > 0 {
			share = 100 * float64(r.self) / float64(total)
		}
		fmt.Fprintf(w, "    %-44s %8d %12.2f %10.3f %6.1f%%\n", r.name, r.count, float64(r.self)/1e6, percentile(r.selfs, 50), share)
	}
}

// layerMetrics computes the per-layer metrics of one workload from its
// traced rep, its replay, and its untraced reps.
func layerMetrics(t spanTree, traced *repResult, rp *replayer, replayScale float64, reps []*repResult, obsRatio float64, probes []float64) map[string]float64 {
	perReq := 1 / float64(traced.Runs)
	replay, replayTotal := layerRows(t, spanReplay)
	servedRows, _ := layerRows(t, spanRequest)
	selfMs := func(rows []*layerRow, name string, scale float64) float64 {
		for _, r := range rows {
			if r.name == name {
				return float64(r.self) / 1e6 * scale * perReq
			}
		}
		return 0
	}
	share := func(name string) float64 {
		for _, r := range replay {
			if r.name == name && replayTotal > 0 {
				return 100 * float64(r.inclusive) / float64(replayTotal)
			}
		}
		return 0
	}
	counter := func(name string) float64 { return float64(rp.rec.Counter(name)) * perReq }
	ratio := func(num, den float64) float64 {
		if den == 0 { //vc2m:floateq zero is the no-data sentinel of a count
			return 0
		}
		return num / den
	}
	admits := float64(rp.rec.Counter(alloc.MetricIncrementalAdmits))
	arrivals := admits + float64(rp.rec.Counter(alloc.MetricIncrementalRejects))
	var retainedKB, allocMB, gcShare, untracedPerUnit []float64
	for _, r := range reps {
		retainedKB = append(retainedKB, r.HeapMB*1024/float64(r.Runs))
		allocMB = append(allocMB, r.AllocMB/float64(r.Units))
		gcShare = append(gcShare, r.GCCPUShare)
		untracedPerUnit = append(untracedPerUnit, r.WallS*r.Scale/float64(r.Units))
	}
	m := map[string]float64{
		"model.decode_ms":                selfMs(replay, spanDecode, replayScale),
		"alloc.vmlevel_ms":               selfMs(replay, obs.StageVMLevel, replayScale),
		"csa.derive_ms":                  selfMs(replay, obs.StageCSADerive, replayScale),
		"alloc.hyper_ms":                 selfMs(replay, obs.StageHyper, replayScale),
		"report.build_ms":                selfMs(replay, spanBuild, replayScale),
		"report.encode_ms":               selfMs(replay, spanEncode, replayScale),
		"server.submit_ms":               selfMs(servedRows, spanSubmit, traced.Scale),
		"server.wait_ms":                 selfMs(servedRows, spanWait, traced.Scale),
		"server.fetch_ms":                selfMs(servedRows, spanFetch, traced.Scale),
		"replay_ms":                      float64(replayTotal) / 1e6 * replayScale * perReq,
		"hypersim.run_share":             share(obs.StageHypersim),
		"alloc.incremental_share":        share(obs.StageIncremental),
		"csa.derive_calls":               float64(rp.derives) * perReq,
		"csa.sbf.evals":                  counter(csa.MetricSBFEvals),
		"csa.minbudget.bisect_iters":     counter(csa.MetricMinBudgetIters),
		"alloc.hyper.permutations":       counter(alloc.MetricPermutations),
		"alloc.hyper.m_tried":            counter(alloc.MetricMTried),
		"alloc.schedulable_ratio":        ratio(float64(rp.accepted), float64(rp.allocs)),
		"alloc.incremental.repack_ratio": ratio(float64(rp.rec.Counter(alloc.MetricIncrementalRepacks)), arrivals),
		"alloc.incremental.admit_ratio":  ratio(admits, arrivals),
		"hypersim.engine_steps":          counter(hypersim.MetricSchedInvocations),
		"server.request_kb":              traced.RequestKB,
		"server.report_kb":               traced.ReportKB,
		"server.retained_kb_per_run":     median(retainedKB),
		"runtime.alloc_mb_per_op":        median(allocMB),
		"runtime.gc_cpu_share":           median(gcShare),
		"obs.overhead_ratio":             obsRatio,
		"trace.overhead_ratio":           ratio(traced.WallS*traced.Scale/float64(traced.Units), median(untracedPerUnit)),
		"host.probe_ms":                  median(probes),
	}
	for _, slug := range solutionSlugs {
		m["experiment.solution_share."+slug] = share(spanSolution + slug)
	}
	return m
}
