package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"time"

	"vc2m"
	"vc2m/internal/metrics"
	"vc2m/internal/obs"
	"vc2m/internal/server"
)

// reportSchema identifies the detailed report layout (-out, -compare).
const reportSchema = "vc2m-e2e/v1"

// options configures one benchmark invocation.
type options struct {
	workloads []workloadSpec
	seed      int64
	// seconds bounds each workload's reps: another rep starts only while
	// the reps so far plus one more fit in it (at least one rep runs).
	seconds float64
	// trace adds the traced served rep and the in-process replay per
	// workload, for the per-layer metrics.
	trace bool
	// quick runs smoke-size inputs: one rep of four requests, a 2-point
	// sweep with 2 tasksets per point.
	quick bool
	// log receives progress and the human-readable tables.
	log io.Writer
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadReport is one workload's results in the detailed report.
type workloadReport struct {
	Name    string `json:"name"`
	Loop    string `json:"loop"`
	Clients int    `json:"clients"`
	RepSize int    `json:"rep_size"`
	Unit    string `json:"unit"`

	Reps   []*repResult `json:"reps"`
	Traced *repResult   `json:"traced,omitempty"`
	// Metrics are the normalized end-to-end metrics; Raw the same before
	// host normalization.
	Metrics map[string]value   `json:"metrics"`
	Raw     map[string]float64 `json:"raw"`
	Layers  map[string]value   `json:"layers,omitempty"`

	// SampleCounters and SampleDigest cover rep 0's checked sample (fixed
	// by the seed); ReplayCounters and ReplayDigest the traced replay.
	SampleCounters map[string]int64 `json:"sample_counters"`
	SampleDigest   string           `json:"sample_digest"`
	ReplayCounters map[string]int64 `json:"replay_counters,omitempty"`
	ReplayDigest   string           `json:"replay_digest,omitempty"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	elapsed time.Duration
	probes  []float64
}

// benchReport is the detailed report: raw per-rep values, probe times and
// the host fingerprint.
type benchReport struct {
	Schema    string            `json:"schema"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Host      host              `json:"host"`
	Workloads []*workloadReport `json:"workloads"`
}

func (wr *workloadReport) add(r *repResult) {
	wr.Attempted += r.attempted
	wr.Failed += r.failed
	for _, f := range r.failures {
		if len(wr.Failures) < maxFailureMsgs {
			wr.Failures = append(wr.Failures, f)
		}
	}
	wr.probes = append(wr.probes, r.ProbeBeforeMs, r.ProbeAfterMs)
}

// measured returns the reps the metrics summarize: all but the warm-up.
func (wr *workloadReport) measured() []*repResult {
	var out []*repResult
	for _, r := range wr.Reps {
		if !r.Warmup {
			out = append(out, r)
		}
	}
	return out
}

// wantsRep reports whether another rep of the workload still fits.
func (wr *workloadReport) wantsRep(o options) bool {
	n := len(wr.Reps)
	if n == 0 {
		return true
	}
	if o.quick {
		return false
	}
	perRep := wr.elapsed / time.Duration(n)
	return (wr.elapsed + perRep).Seconds() <= o.seconds
}

// run executes the benchmark: reps of all selected workloads interleaved
// round-robin, so a slow host phase hits every workload, then per workload
// the traced rep and replay when tracing. The returned trace holds the
// spans (nil without tracing).
func run(ctx context.Context, o options) (*benchReport, *obs.Trace, error) {
	rep := &benchReport{Schema: reportSchema, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Host: fingerprint()}
	for _, w := range o.workloads {
		rep.Workloads = append(rep.Workloads, &workloadReport{
			Name: w.name, Loop: "closed", Clients: w.clients, RepSize: w.requests, Unit: w.unit,
		})
	}
	var timeline []*repResult
	for index := 0; ; index++ {
		ran := false
		for i, w := range o.workloads {
			wr := rep.Workloads[i]
			if !wr.wantsRep(o) {
				continue
			}
			ran = true
			r, err := runRep(ctx, w, o.seed, index, o.quick, nil)
			if err != nil {
				return nil, nil, fmt.Errorf("%s rep %d: %w", w.name, index, err)
			}
			timeline = append(timeline, r)
			wr.Reps = append(wr.Reps, r)
			wr.elapsed += r.total
			wr.add(r)
			raw := repValues(r, 1)
			fmt.Fprintf(o.log, "%-20s rep %2d: %8.1f %s/s  p50 %8.2f ms  setup %.3f s  heap %6.1f MB  probes %.1f/%.1f ms  failed %d (raw)\n",
				w.name, index, raw["throughput_per_s"], w.unit, raw["latency_p50_ms"], raw["setup_s"], r.HeapMB, r.ProbeBeforeMs, r.ProbeAfterMs, r.failed)
		}
		if !ran {
			break
		}
	}
	setScales(timeline)
	for _, r := range timeline {
		r.Values = repValues(r, r.Scale)
	}
	for _, wr := range rep.Workloads {
		wr.Reps[0].Warmup = len(wr.Reps) > 1
	}
	var tr *obs.Trace
	if o.trace {
		tr = obs.NewTrace()
	}
	for i, w := range o.workloads {
		wr := rep.Workloads[i]
		wr.Metrics = map[string]value{}
		norm := summarize(wr.measured(), true)
		for _, spec := range endToEnd {
			wr.Metrics[spec.name] = value{norm[spec.name], spec.unit}
		}
		wr.Raw = summarize(wr.measured(), false)
		wr.SampleCounters, wr.SampleDigest = wr.Reps[0].counters, wr.Reps[0].digest
		if o.trace {
			if err := traceWorkload(ctx, o, w, wr, tr); err != nil {
				return nil, nil, fmt.Errorf("%s traced run: %w", w.name, err)
			}
		}
	}
	return rep, tr, nil
}

// setScales sets each rep's host factor, probeRefMs over the median of
// the probes around the reps just before, at and just after it in run
// order. A probe that a momentary stall inflated is outvoted; a slow phase
// longer than a rep moves the median, so the rep's timings are scaled
// down by it.
func setScales(timeline []*repResult) {
	for k, r := range timeline {
		var probes []float64
		for _, n := range timeline[max(0, k-1):min(len(timeline), k+2)] {
			probes = append(probes, n.ProbeBeforeMs, n.ProbeAfterMs)
		}
		r.Scale = probeRefMs / median(probes)
	}
}

// traceWorkload serves one traced rep (rep 0's inputs) with a request span
// tree per request, replays the same inputs serially in-process under
// replay roots, checks every replayed report against the served one, and
// fills the workload's per-layer metrics.
func traceWorkload(ctx context.Context, o options, w workloadSpec, wr *workloadReport, tr *obs.Trace) error {
	traced, err := runRep(ctx, w, o.seed, 0, o.quick, tr)
	if err != nil {
		return err
	}
	wr.Traced = traced
	wr.add(traced)

	before := probeMs()
	stride := 1
	if w.kind == server.KindSweep {
		stride = max(1, 3*traced.Units/sampleChecked) // three heuristic solutions per taskset
	}
	rp := &replayer{rec: metrics.New(), sampleStride: stride}
	in := traced.inputs
	h := sha256.New()
	replayed := func(what string, attrKey string, idx int, fn func(root *obs.Span) ([]byte, error), served []byte) {
		root := tr.StartSpan(spanReplay)
		root.SetAttr("workload", w.name)
		root.SetInt(attrKey, int64(idx))
		data, err := fn(root)
		root.End()
		wr.Attempted++
		switch {
		case err != nil:
			wr.fail(fmt.Sprintf("%s replay of %s: %v", w.name, what, err))
		case served != nil && !bytes.Equal(data, served):
			wr.fail(fmt.Sprintf("%s replay of %s differs from the served report", w.name, what))
		}
		h.Write(data)
	}
	bases := make([]*vc2m.Allocation, len(in.bases))
	for b, body := range in.bases {
		replayed(fmt.Sprintf("base %d", b), "base", b, func(root *obs.Span) ([]byte, error) {
			data, a, err := rp.run(root, body)
			bases[b] = a
			return data, err
		}, nil)
	}
	for i, body := range in.bodies {
		replayed(fmt.Sprintf("request %d", i), "req", i, func(root *obs.Span) ([]byte, error) {
			switch w.kind {
			case server.KindChurn:
				b := in.baseOf[i]
				if bases[b] == nil {
					return nil, fmt.Errorf("base %d has no allocation", b)
				}
				return rp.churn(root, body, traced.baseIDs[b], bases[b])
			case server.KindSweep:
				return rp.sweep(root, body)
			}
			data, _, err := rp.run(root, body)
			return data, err
		}, traced.reports[i])
	}
	after := probeMs()
	for _, m := range rp.mismatches {
		wr.fail(w.name + " replay: " + m)
	}
	wr.ReplayCounters = replayCounters(rp)
	wr.ReplayDigest = hex.EncodeToString(h.Sum(nil))
	wr.probes = append(wr.probes, before, after)
	// The traced rep and the replay run back to back; one factor from all
	// four of their probes scales both.
	traced.Scale = probeRefMs / median([]float64{traced.ProbeBeforeMs, traced.ProbeAfterMs, before, after})
	traced.Values = repValues(traced, traced.Scale)

	spans := workloadSpans(tr.Snapshot(), w.name)
	layers := layerMetrics(spans, traced, rp, traced.Scale, wr.measured(), obsOverhead(rp.samples), wr.probes)
	wr.Layers = map[string]value{}
	for _, spec := range perLayer {
		wr.Layers[spec.name] = value{layers[spec.name], spec.unit}
	}
	fmt.Fprintf(o.log, "%s per-layer self time (traced rep %d requests):\n", w.name, traced.Runs)
	rows, total := layerRows(spans, spanRequest)
	writeLayerTable(o.log, "served", rows, total)
	rows, total = layerRows(spans, spanReplay)
	writeLayerTable(o.log, "replay", rows, total)
	return nil
}

func (wr *workloadReport) fail(msg string) {
	wr.Failed++
	if len(wr.Failures) < maxFailureMsgs {
		wr.Failures = append(wr.Failures, msg)
	}
}

// replayCounters is the replayer's deterministic work record: the
// program's counters plus the replayer's own tallies.
func replayCounters(rp *replayer) map[string]int64 {
	out := rp.rec.Snapshot().Counters
	if out == nil {
		out = map[string]int64{}
	}
	out["replay.csa_derives"] = rp.derives
	out["replay.allocations"] = rp.allocs
	out["replay.accepted"] = rp.accepted
	return out
}

// obsOverhead times vc2m.Allocate over the sampled systems with
// provenance, metrics and spans all on, and all off, three times each
// alternately, and returns the median on/off ratio (0 without samples).
func obsOverhead(samples []allocSample) float64 {
	if len(samples) == 0 {
		return 0
	}
	pass := func(on bool) time.Duration {
		start := time.Now() //vc2m:wallclock benchmark timing
		for _, s := range samples {
			opts := vc2m.Options{Mode: s.mode}
			if on {
				opts.Provenance, opts.Metrics = vc2m.NewProvenance(), vc2m.NewMetrics()
				opts.Span = vc2m.NewSpanTrace().StartSpan(obs.StageRun)
			}
			_, _ = vc2m.Allocate(s.sys, opts) // a rejection costs time like an acceptance; only time is measured
			opts.Span.End()
		}
		return time.Since(start) //vc2m:wallclock benchmark timing
	}
	var ratios []float64
	for k := 0; k < 3; k++ {
		off := pass(false)
		ratios = append(ratios, float64(pass(true))/float64(off))
	}
	return median(ratios)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m { //vc2m:ordered keys are sorted below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
