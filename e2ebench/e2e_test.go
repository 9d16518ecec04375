package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"vc2m/internal/obs"
)

// quickRun runs every workload at smoke size with tracing on.
func quickRun(t *testing.T) (*benchReport, *obs.Trace) {
	t.Helper()
	rep, tr, err := run(context.Background(), options{workloads: workloads, seed: 1, trace: true, quick: true, log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	return rep, tr
}

func TestQuickRunReportsEveryMetric(t *testing.T) {
	rep, _ := quickRun(t)
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("%d workloads reported, want %d", len(rep.Workloads), len(workloads))
	}
	for _, wr := range rep.Workloads {
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: %d of %d failed: %v", wr.Name, wr.Failed, wr.Attempted, wr.Failures)
		}
		for _, spec := range endToEnd {
			v, ok := wr.Metrics[spec.name]
			if !ok || v.Unit != spec.unit || !(v.Value > 0) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: end-to-end %s = %+v (present %v), want a positive value in %s", wr.Name, spec.name, v, ok, spec.unit)
			}
		}
		for _, spec := range perLayer {
			v, ok := wr.Layers[spec.name]
			if !ok || v.Unit != spec.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 {
				t.Errorf("%s: per-layer %s = %+v (present %v), want a finite value in %s", wr.Name, spec.name, v, ok, spec.unit)
			}
		}
		// Every layer timed in milliseconds runs on every workload.
		for _, spec := range perLayer {
			if spec.unit == "ms" && !(wr.Layers[spec.name].Value > 0) {
				t.Errorf("%s: %s is %v, want > 0", wr.Name, spec.name, wr.Layers[spec.name].Value)
			}
		}
	}
	line, failed := resultLine(rep)
	if failed || !line.Correct || line.Failed != 0 {
		t.Fatalf("result line %+v", line)
	}
	if want := len(workloads) * len(perLayer); len(line.Metrics) != want {
		t.Errorf("result line has %d metrics, want %d", len(line.Metrics), want)
	}
	if _, ok := line.Metrics["churn-existing/alloc.incremental_share"]; !ok {
		t.Error("multi-workload result line does not prefix metric names with the workload")
	}
}

// TestTraceCoversEveryLayer checks that the traced run has a span for
// every named layer on the workloads that reach it, that parent links
// point at enclosing spans, and that the Chrome export reads back.
func TestTraceCoversEveryLayer(t *testing.T) {
	_, tr := quickRun(t)
	all := tr.Snapshot()
	common := []string{spanRequest, spanSubmit, spanWait, spanFetch, spanReplay, spanDecode, spanBuild, spanEncode,
		obs.StageVMLevel, obs.StageCSADerive, obs.StageHyper}
	want := map[string][]string{
		"cold-existing":       common,
		"cold-flattening-sim": append([]string{obs.StageHypersim}, common...),
		"churn-existing":      append([]string{obs.StageIncremental}, common...),
		"sweep-paper":         common,
	}
	for _, slug := range solutionSlugs {
		want["sweep-paper"] = append(want["sweep-paper"], spanSolution+slug)
	}
	for name, layers := range want { //vc2m:ordered each workload is checked on its own
		seen := map[string]bool{}
		for _, s := range workloadSpans(all, name).spans {
			seen[s.Name] = true
		}
		for _, l := range layers {
			if !seen[l] {
				t.Errorf("%s: no %s span", name, l)
			}
		}
	}

	byID := map[int]obs.SpanRecord{}
	for _, s := range all {
		byID[s.ID] = s
	}
	for _, s := range all {
		if s.Parent < 0 {
			if s.Name != spanRequest && s.Name != spanReplay {
				t.Errorf("root span %q, want %s or %s", s.Name, spanRequest, spanReplay)
			}
			if attr(s, "workload") == "" {
				t.Errorf("root span %d has no workload attribute", s.ID)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
			continue
		}
		if s.Start.Before(p.Start) || s.Start.Add(s.Duration).After(p.Start.Add(p.Duration)) {
			t.Errorf("span %d (%s) is not inside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	stages, err := obs.ReadChromeStages(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) < len(common) {
		t.Errorf("Chrome trace has stages %v", stages)
	}
}

// TestQuickRunsAreDeterministic: the replay counters and the digests of
// the checked report bytes depend only on the seed.
func TestQuickRunsAreDeterministic(t *testing.T) {
	a, _ := quickRun(t)
	b, _ := quickRun(t)
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		if !reflect.DeepEqual(wa.SampleCounters, wb.SampleCounters) || wa.SampleDigest != wb.SampleDigest {
			t.Errorf("%s: sample counters or digest differ between identical runs", wa.Name)
		}
		if !reflect.DeepEqual(wa.ReplayCounters, wb.ReplayCounters) || wa.ReplayDigest != wb.ReplayDigest {
			t.Errorf("%s: replay counters or digest differ between identical runs", wa.Name)
		}
		if len(wa.ReplayCounters) == 0 || wa.ReplayDigest == "" {
			t.Errorf("%s: no replay counters or digest", wa.Name)
		}
	}
}

func TestVerdict(t *testing.T) {
	higher := metricSpec{"throughput_per_s", "1/s", "higher", 0.10}
	lower := metricSpec{"latency_p50_ms", "ms", "lower", 0.10}
	steady := []float64{100, 101, 99, 100, 100.5, 99.5}
	for _, tc := range []struct {
		name     string
		spec     metricSpec
		old, new []float64
		want     string
	}{
		{"every new rep beats every old rep", higher, steady, []float64{120, 121, 119, 122, 118, 120}, verdictBetter},
		{"median gain beyond the parent's spread", higher, steady, []float64{103, 104, 99, 103, 102.5, 104}, verdictBetter},
		{"throughput drops past the bound", higher, steady, []float64{80, 81, 79, 80, 80.5, 79.5}, verdictWorse},
		{"latency rises past the bound", lower, steady, []float64{115, 116, 114, 115, 115.5, 114.5}, verdictWorse},
		{"small drop inside the bound", higher, steady, []float64{97, 98, 96, 97, 97.5, 96.5}, verdictWithin},
		{"spread wider than the bound, overlapping", higher, []float64{60, 140, 100, 80, 120}, []float64{70, 130, 95, 85, 115}, verdictUnresolved},
	} {
		if got := verdict(tc.spec, tc.old, tc.new); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []obs.SpanRecord{
		{ID: 0, Parent: -1, Start: at(0), Duration: ms(100)},
		{ID: 1, Parent: 0, Start: at(10), Duration: ms(20)}, // 10..30
		{ID: 2, Parent: 0, Start: at(20), Duration: ms(20)}, // 20..40, overlaps 1
		{ID: 3, Parent: 0, Start: at(90), Duration: ms(30)}, // 90..120, past the parent's end
		{ID: 4, Parent: 1, Start: at(12), Duration: ms(5)},  // grandchild: only 1's self time
	}
	got := selfTimes(spans)
	for id, want := range map[int]time.Duration{0: ms(60), 1: ms(15), 2: ms(20), 3: ms(30), 4: ms(5)} { //vc2m:ordered each span is checked on its own
		if got[id] != want {
			t.Errorf("span %d self time %v, want %v", id, got[id], want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestCheckNoMisses(t *testing.T) {
	for _, tc := range []struct {
		doc string
		ok  bool
	}{
		{"{\n  \"sim\": {\n    \"released\": 4,\n    \"missed\": 0,\n    \"completed\": 4\n  }\n}", true},
		{"{\n  \"sim\": {\n    \"missed\": 3,\n  }\n}", false},
		{"{\n  \"rejection\": {\n    \"reason\": \"x\"\n  }\n}", true},
		{"{\n  \"allocation\": {}\n}", false},
	} {
		if err := checkNoMisses([]byte(tc.doc)); (err == nil) != tc.ok {
			t.Errorf("checkNoMisses(%q) = %v, want ok %v", tc.doc, err, tc.ok)
		}
	}
}

// TestBenchmarkJSONMatchesSpecs keeps BENCHMARK.json, which describes the
// benchmark to outside tools, in step with the workloads and metrics the
// code reports.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || !strings.Contains(doc.Workloads[i].Why, "closed loop") {
			t.Errorf("workload %d: %+v, want %s with its loop type", i, doc.Workloads[i], w.name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d metrics, code %d/%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		got := doc.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound { //vc2m:floateq both sides parse the same decimal literal
			t.Errorf("end_to_end %d: %+v, code %+v", i, got, m)
		}
	}
	for i, m := range perLayer {
		got := doc.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer %d: %+v, code %+v", i, got, m)
		}
	}
}
