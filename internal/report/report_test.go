package report_test

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"vc2m"
	"vc2m/internal/alloc"
	"vc2m/internal/provenance"
	"vc2m/internal/report"
)

// buildRunDoc performs a complete seeded allocation (and, on success, a
// short simulation) and joins it into a run document — the in-process
// equivalent of `vc2m-sim -report-out`.
func buildRunDoc(t testing.TB, util float64, seed int64) *report.Document {
	t.Helper()
	sys, err := vc2m.GenerateWorkload(vc2m.WorkloadConfig{
		Platform: vc2m.PlatformA, TargetRefUtil: util, Seed: seed,
	})
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}
	prov := vc2m.NewProvenance()
	in := report.RunInput{
		Title:      fmt.Sprintf("test run (util %.1f, seed %d)", util, seed),
		Seed:       seed,
		Mode:       "flattening",
		Platform:   sys.Platform,
		Provenance: prov,
	}
	a, err := vc2m.Allocate(sys, vc2m.Options{Provenance: prov})
	if err != nil {
		in.Rejection = toRejection(err)
	} else {
		in.Allocation = a
		res, err := vc2m.Simulate(a, 500, vc2m.SimOptions{})
		if err != nil {
			t.Fatalf("Simulate: %v", err)
		}
		in.Sim = res
	}
	return report.BuildRun(in)
}

func toRejection(err error) *report.Rejection {
	rej := &report.Rejection{Reason: err.Error(), Violated: []string{"cpu"}}
	if re, ok := alloc.AsRejection(err); ok {
		rej.Stage = re.Stage
		rej.Violated = rej.Violated[:0]
		for _, r := range re.Violated {
			rej.Violated = append(rej.Violated, string(r))
		}
	}
	return rej
}

// TestReportSmoke validates a report JSON end to end. The make
// report-smoke target points VC2M_REPORT_SMOKE at a document written by
// vc2m-sim and re-runs this test against it; with the variable unset the
// test builds a document in-process, so plain `go test` covers the same
// checks.
func TestReportSmoke(t *testing.T) {
	var doc *report.Document
	if path := os.Getenv("VC2M_REPORT_SMOKE"); path != "" {
		var err error
		doc, err = report.Load(path)
		if err != nil {
			t.Fatalf("Load(%s): %v", path, err)
		}
		if doc.Sim == nil {
			t.Error("vc2m-sim -simulate report has no sim section")
		}
	} else {
		doc = buildRunDoc(t, 1.0, 7)
	}
	if err := report.Validate(doc); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if doc.Kind != report.KindRun {
		t.Errorf("kind = %q, want %q", doc.Kind, report.KindRun)
	}
	if doc.Allocation == nil {
		t.Fatal("admitted run has no allocation section")
	}
	if len(doc.Decisions) == 0 {
		t.Fatal("report has no provenance decisions")
	}
	for _, core := range doc.Allocation.Cores {
		if core.Utilization > 1+1e-9 {
			t.Errorf("core %d utilization %.6f > 1 in a schedulable allocation", core.Core, core.Utilization)
		}
	}
}

func TestValidateRejectsMalformedDocuments(t *testing.T) {
	base := func() *report.Document { return buildRunDoc(t, 1.0, 7) }

	doc := base()
	doc.Schema = "vc2m.report/v0"
	if err := report.Validate(doc); err == nil {
		t.Error("wrong schema version accepted")
	}

	doc = base()
	doc.Kind = "banana"
	if err := report.Validate(doc); err == nil {
		t.Error("unknown kind accepted")
	}

	doc = base()
	if len(doc.Decisions) >= 2 {
		doc.Decisions[1].Seq = doc.Decisions[0].Seq
		if err := report.Validate(doc); err == nil {
			t.Error("non-increasing decision seq accepted")
		}
	}

	doc = base()
	doc.Rejection = &report.Rejection{Reason: "x", Violated: []string{"gpu"}}
	doc.Allocation = nil
	if err := report.Validate(doc); err == nil {
		t.Error("invalid rejection resource accepted")
	}

	doc = base()
	doc.Rejection = &report.Rejection{Reason: "x", Violated: []string{"cpu"}}
	if err := report.Validate(doc); err == nil {
		t.Error("document with both allocation and rejection accepted")
	}
}

func TestDiffDetectsAndClears(t *testing.T) {
	a := buildRunDoc(t, 1.0, 7)
	b := buildRunDoc(t, 1.0, 7)
	if diffs := report.Diff(a, b); len(diffs) != 0 {
		t.Fatalf("identically-seeded documents differ:\n%s", strings.Join(diffs, "\n"))
	}
	b.Seed = 8
	b.Decisions[0].Reason = "tampered"
	diffs := report.Diff(a, b)
	if len(diffs) < 2 {
		t.Fatalf("tampered document produced %d diff(s): %v", len(diffs), diffs)
	}
}

// TestMarshalByteStable is the reproducibility contract: two documents
// built from independent identically-seeded runs must serialize to the
// same bytes.
func TestMarshalByteStable(t *testing.T) {
	for _, c := range []struct {
		name string
		util float64
		seed int64
	}{
		{"admitted", 1.0, 7},
		{"rejected", 4.5, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			a, err := report.Marshal(buildRunDoc(t, c.util, c.seed))
			if err != nil {
				t.Fatal(err)
			}
			b, err := report.Marshal(buildRunDoc(t, c.util, c.seed))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Error("two identically-seeded runs serialized differently")
			}
		})
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	doc := buildRunDoc(t, 1.0, 7)
	path := t.TempDir() + "/run.json"
	if err := report.Save(path, doc); err != nil {
		t.Fatal(err)
	}
	loaded, err := report.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := report.Diff(doc, loaded); len(diffs) != 0 {
		t.Fatalf("round trip changed the document:\n%s", strings.Join(diffs, "\n"))
	}
}

func TestRenderHTMLSelfContained(t *testing.T) {
	for _, c := range []struct {
		name string
		util float64
		seed int64
	}{
		{"admitted", 1.0, 7},
		{"rejected", 4.5, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			doc := buildRunDoc(t, c.util, c.seed)
			page := report.RenderHTML(doc)
			for _, banned := range []string{"http://", "https://", "<script"} {
				if strings.Contains(page, banned) {
					t.Errorf("HTML contains %q; the page must be self-contained", banned)
				}
			}
			if !strings.Contains(page, "<!DOCTYPE html>") {
				t.Error("missing doctype")
			}
			if c.util > 2 && !strings.Contains(page, "Verdict: rejected") {
				t.Error("rejected run's HTML has no rejection verdict")
			}
			if c.util <= 2 && !strings.Contains(page, "Allocation") {
				t.Error("admitted run's HTML has no allocation section")
			}
		})
	}
}

func TestExplainRejectedNamesBindingResource(t *testing.T) {
	doc := buildRunDoc(t, 4.5, 3)
	if doc.Rejection == nil {
		t.Fatal("util-4.5 workload unexpectedly admitted")
	}
	out := report.Explain(doc, "system")
	if !strings.Contains(out, "binding resource(s):") {
		t.Fatalf("explain names no binding resource:\n%s", out)
	}
	if !strings.Contains(out, "verdict: REJECTED") {
		t.Fatalf("explain has no rejection verdict:\n%s", out)
	}
}

func TestRejectionPareto(t *testing.T) {
	doc := buildRunDoc(t, 4.5, 3)
	pareto := report.RejectionPareto(doc)
	if len(pareto) == 0 {
		t.Fatal("rejected run yields an empty Pareto tally")
	}
	for i := 1; i < len(pareto); i++ {
		if pareto[i].Count > pareto[i-1].Count {
			t.Errorf("pareto not sorted: %v", pareto)
		}
	}
}

// TestBuildSharesDecisionStream: BuildRun and BuildSweep take the
// recorder's stream without copying it. The document's decisions share
// the recorder's array, marshal to the bytes a copied stream gives, and
// stay as they were when the recorder records after the build.
func TestBuildSharesDecisionStream(t *testing.T) {
	sys, err := vc2m.GenerateWorkload(vc2m.WorkloadConfig{
		Platform: vc2m.PlatformA, TargetRefUtil: 1.0, Seed: 7,
	})
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}
	prov := vc2m.NewProvenance()
	a, err := vc2m.Allocate(sys, vc2m.Options{Provenance: prov})
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	docs := map[string]*report.Document{
		"run": report.BuildRun(report.RunInput{
			Title: "shared stream", Seed: 7, Mode: "flattening",
			Platform: sys.Platform, Allocation: a, Provenance: prov,
		}),
		"sweep": report.BuildSweep(report.SweepInput{
			Title: "shared stream", Seed: 7, Mode: "flattening",
			Platform: sys.Platform, Sweep: &report.SweepSummary{}, Provenance: prov,
		}),
	}
	copied := prov.Decisions()
	if len(copied) == 0 {
		t.Fatal("the allocation recorded no decisions")
	}
	for _, kind := range []string{"run", "sweep"} {
		doc := docs[kind]
		if view := prov.View(); &doc.Decisions[0] != &view[0] {
			t.Errorf("%s: the document's decisions are a copy of the recorder's stream", kind)
		}
		if len(doc.Decisions) != len(copied) || cap(doc.Decisions) != len(doc.Decisions) {
			t.Errorf("%s: decisions len %d cap %d, want both %d", kind, len(doc.Decisions), cap(doc.Decisions), len(copied))
		}
		got, err := report.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		withCopy := *doc
		withCopy.Decisions = copied
		want, err := report.Marshal(&withCopy)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: report bytes differ from those of a copied stream", kind)
		}
	}
	for i := 0; i < 3*len(copied); i++ {
		prov.Record(provenance.Decision{Stage: provenance.StageAdmit, Kind: provenance.KindReject, Reason: "after the build"})
	}
	for _, kind := range []string{"run", "sweep"} {
		if !reflect.DeepEqual(docs[kind].Decisions, copied) {
			t.Errorf("%s: a Record after the build changed the document's decisions", kind)
		}
	}
}
