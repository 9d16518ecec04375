package report_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vc2m/internal/experiment"
	"vc2m/internal/model"
	"vc2m/internal/provenance"
	"vc2m/internal/report"
	"vc2m/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the explain golden files")

// TestExplainGolden locks down the `vc2m-report explain` output for one
// admitted and one rejected taskset. Each case builds its document twice
// from independent identically-seeded runs and asserts byte-stability
// before comparing against testdata/*.golden; regenerate the goldens with
// `go test ./internal/report -update` after an intentional format change.
func TestExplainGolden(t *testing.T) {
	cases := []struct {
		name    string
		util    float64
		seed    int64
		subject string
	}{
		{"explain_admitted", 1.0, 7, "t1"},
		{"explain_rejected", 4.5, 3, "system"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			doc := buildRunDoc(t, c.util, c.seed)
			again := buildRunDoc(t, c.util, c.seed)
			da, err := report.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			db, err := report.Marshal(again)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(da, db) {
				t.Fatal("two identically-seeded runs produced different documents; explain output would not be stable")
			}
			assertMarshalMatchesEncodingJSON(t, doc)

			got := report.Explain(doc, c.subject)
			golden := filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/report -update` to create the goldens)", err)
			}
			if got != string(want) {
				t.Errorf("explain output drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// TestSweepExplainNamesBindingResource is the acceptance check for the
// rejection diagnosis: in a 50-taskset sweep at an infeasible utilization,
// every rejected case's explain output must name at least one binding
// resource.
func TestSweepExplainNamesBindingResource(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep acceptance check skipped in -short mode")
	}
	prov := provenance.New()
	res, err := experiment.RunSchedulability(experiment.SchedConfig{
		Platform:         model.PlatformA,
		Dist:             workload.Uniform,
		UtilMin:          2.0,
		UtilMax:          2.0,
		UtilStep:         1, // single point
		TasksetsPerPoint: 50,
		Seed:             1,
		Provenance:       prov,
	})
	if err != nil {
		t.Fatal(err)
	}
	doc := report.BuildSweep(report.SweepInput{
		Title: "acceptance sweep", Seed: 1, Platform: model.PlatformA,
		Sweep: res.ReportSweep(), Provenance: prov,
	})
	if err := report.Validate(doc); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	assertMarshalMatchesEncodingJSON(t, doc)
	rejected := 0
	for _, d := range doc.Decisions {
		if d.Stage != provenance.StageSweep || d.Accepted {
			continue
		}
		rejected++
		out := report.Explain(doc, d.Subject)
		if !strings.Contains(out, "binding resource(s):") {
			t.Fatalf("rejected case %s (-> %s): explain names no binding resource:\n%s", d.Subject, d.Target, out)
		}
	}
	if rejected == 0 {
		t.Fatal("sweep at utilization 2.0 rejected nothing; the acceptance check did not exercise the diagnosis")
	}
	t.Logf("%d rejected sweep cases, all with a named binding resource", rejected)
}
