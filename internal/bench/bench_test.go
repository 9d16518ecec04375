package bench

import (
	"strings"
	"testing"
)

// TestRunAllQuick is the smoke test CI's bench-smoke step relies on: the
// quick suite must run end to end, produce one result per benchmark with a
// positive value, and keep every optimized-vs-reference equality guard
// green.
func TestRunAllQuick(t *testing.T) {
	rep, err := RunAll(Options{Quick: true})
	if err != nil {
		t.Fatalf("RunAll(quick): %v", err)
	}
	if rep.Schema != Schema {
		t.Errorf("schema = %q, want %q", rep.Schema, Schema)
	}
	if !rep.Quick {
		t.Error("report not marked quick")
	}
	if len(rep.Results) == 0 {
		t.Fatal("no results")
	}
	seen := map[string]bool{}
	for _, r := range rep.Results {
		if r.Name == "" || r.Metric == "" {
			t.Errorf("result with empty name/metric: %+v", r)
		}
		if seen[r.Name] {
			t.Errorf("duplicate benchmark name %q", r.Name)
		}
		seen[r.Name] = true
		if r.Value <= 0 {
			t.Errorf("%s: non-positive value %v", r.Name, r.Value)
		}
		if r.Baseline != nil && r.Speedup <= 0 {
			t.Errorf("%s: baseline present but speedup %v", r.Name, r.Speedup)
		}
	}
	for _, want := range []string{"csa/min-budget", "hypersim/event-loop", "experiment/sweep"} {
		if !seen[want] {
			t.Errorf("suite missing benchmark %q", want)
		}
	}
}

func TestReportMarshalRoundTrip(t *testing.T) {
	rep := &Report{
		Schema:    Schema,
		Stamp:     "20260101T000000Z",
		GoVersion: "go0.0",
		NumCPU:    1,
		Results: []Result{
			{Name: "a/b", Metric: "ops_per_sec", Value: 1, Runs: 1,
				Baseline: &Baseline{Name: "ref", Value: 0.5}, Speedup: 2},
		},
	}
	data, err := rep.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	back, err := ParseReport(data)
	if err != nil {
		t.Fatalf("ParseReport: %v", err)
	}
	if diffs := CompareSchema(rep, back); len(diffs) != 0 {
		t.Errorf("round trip changed schema: %v", diffs)
	}
}

func TestParseReportRejectsUnknownSchema(t *testing.T) {
	if _, err := ParseReport([]byte(`{"schema":"vc2m-bench/v999"}`)); err == nil {
		t.Error("unknown schema accepted")
	}
}

func TestCompareSchemaFlagsDrift(t *testing.T) {
	base := &Report{Schema: Schema, Results: []Result{
		{Name: "a", Metric: "m"},
		{Name: "b", Metric: "m", Baseline: &Baseline{Name: "ref"}},
	}}

	cases := []struct {
		name string
		cur  *Report
		want string
	}{
		{"identical values drift freely",
			&Report{Schema: Schema, Results: []Result{
				{Name: "a", Metric: "m", Value: 99},
				{Name: "b", Metric: "m", Value: 7, Baseline: &Baseline{Name: "ref", Value: 3}},
			}}, ""},
		{"missing benchmark",
			&Report{Schema: Schema, Results: []Result{
				{Name: "b", Metric: "m", Baseline: &Baseline{Name: "ref"}},
			}}, "missing"},
		{"renamed benchmark",
			&Report{Schema: Schema, Results: []Result{
				{Name: "a2", Metric: "m"},
				{Name: "b", Metric: "m", Baseline: &Baseline{Name: "ref"}},
			}}, "missing"},
		{"metric change",
			&Report{Schema: Schema, Results: []Result{
				{Name: "a", Metric: "other"},
				{Name: "b", Metric: "m", Baseline: &Baseline{Name: "ref"}},
			}}, "metric"},
		{"baseline dropped",
			&Report{Schema: Schema, Results: []Result{
				{Name: "a", Metric: "m"},
				{Name: "b", Metric: "m"},
			}}, "baseline presence"},
		{"schema version",
			&Report{Schema: "vc2m-bench/v0", Results: base.Results}, "schema version"},
	}
	for _, tc := range cases {
		diffs := CompareSchema(base, tc.cur)
		if tc.want == "" {
			if len(diffs) != 0 {
				t.Errorf("%s: unexpected diffs %v", tc.name, diffs)
			}
			continue
		}
		found := false
		for _, d := range diffs {
			if strings.Contains(d, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: diffs %v do not mention %q", tc.name, diffs, tc.want)
		}
	}
}
