package report_test

// The differential oracle for report.Marshal: whatever document it is
// given, it must write exactly json.MarshalIndent(doc, "", "  ") plus a
// trailing newline, and fail exactly when encoding/json fails. Its reader,
// report.EachDecisionLine, must give back exactly json.Encoder's line for
// every decision of the written document.

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"vc2m"
	"vc2m/internal/experiment"
	"vc2m/internal/model"
	"vc2m/internal/provenance"
	"vc2m/internal/report"
	"vc2m/internal/workload"
)

// assertMarshalMatchesEncodingJSON fails the test unless report.Marshal
// writes encoding/json's bytes for doc.
func assertMarshalMatchesEncodingJSON(t *testing.T, doc *report.Document) {
	t.Helper()
	got, err := report.Marshal(doc)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	spec, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatalf("json.MarshalIndent: %v", err)
	}
	spec = append(spec, '\n')
	if !bytes.Equal(got, spec) {
		i := 0
		for i < len(got) && i < len(spec) && got[i] == spec[i] {
			i++
		}
		t.Fatalf("Marshal differs from encoding/json at byte %d of %d/%d:\ngot:  %q\nwant: %q",
			i, len(got), len(spec), got[i:min(i+80, len(got))], spec[i:min(i+80, len(spec))])
	}
	assertDecisionLines(t, got, doc.Decisions)
}

// assertDecisionLines fails the test unless EachDecisionLine over data
// yields json.Encoder's line for each of decisions, in order, and no
// other line; and, started at each of a few offsets, the tail of them.
func assertDecisionLines(t *testing.T, data []byte, decisions []provenance.Decision) {
	t.Helper()
	var want []string
	for i := range decisions {
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(&decisions[i]); err != nil {
			t.Fatalf("json.Encoder: %v", err)
		}
		want = append(want, b.String())
	}
	for _, from := range []int{0, 1, len(want) / 2, len(want), len(want) + 1} {
		var got []string
		if err := report.EachDecisionLine(data, from, func(line []byte) error {
			got = append(got, string(line))
			return nil
		}); err != nil {
			t.Fatalf("EachDecisionLine from %d: %v", from, err)
		}
		tail := want[min(from, len(want)):]
		if len(got) != len(tail) {
			t.Fatalf("EachDecisionLine from %d: %d lines, want %d", from, len(got), len(tail))
		}
		for i := range got {
			if got[i] != tail[i] {
				t.Fatalf("EachDecisionLine from %d: line %d\ngot:  %q\nwant: %q", from, from+i, got[i], tail[i])
			}
		}
	}
}

func TestMarshalMatchesEncodingJSON(t *testing.T) {
	docs := map[string]func(t *testing.T) *report.Document{
		"accepted": func(t *testing.T) *report.Document { return buildRunDoc(t, 1.0, 7) },
		"rejected": func(t *testing.T) *report.Document { return buildRunDoc(t, 4.5, 3) },
		"existing": existingDoc,
		"misses":   missesDoc,
		"churn":    churnDoc,
		"sweep":    sweepDoc,
		"empty":    func(*testing.T) *report.Document { return &report.Document{Schema: report.SchemaVersion} },
	}
	for name, build := range docs { //vc2m:ordered independent subtests
		t.Run(name, func(t *testing.T) {
			doc := build(t)
			if name != "empty" && len(doc.Decisions) == 0 {
				t.Fatal("document has no decisions; the direct writer is not exercised")
			}
			assertMarshalMatchesEncodingJSON(t, doc)
		})
	}
}

// existingDoc is an existing-CSA run with counters: the CSA stage's
// decisions carry checkpoint reasons and budget values.
func existingDoc(t *testing.T) *report.Document {
	sys, err := vc2m.GenerateWorkload(vc2m.WorkloadConfig{Platform: vc2m.PlatformA, TargetRefUtil: 1.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	prov, rec := vc2m.NewProvenance(), vc2m.NewMetrics()
	in := report.RunInput{Title: "existing", Seed: 1, Mode: "existing", Platform: sys.Platform, Provenance: prov, Metrics: rec}
	a, err := vc2m.Allocate(sys, vc2m.Options{Mode: vc2m.ExistingCSA, Provenance: prov, Metrics: rec})
	if err != nil {
		in.Rejection = toRejection(err)
	} else {
		in.Allocation = a
	}
	return report.BuildRun(in)
}

// missesDoc simulates an accepted allocation after tripling every task's
// WCET, so the report carries deadline misses and their diagnosis.
func missesDoc(t *testing.T) *report.Document {
	sys, err := vc2m.GenerateWorkload(vc2m.WorkloadConfig{Platform: vc2m.PlatformA, TargetRefUtil: 1.0, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	prov := vc2m.NewProvenance()
	a, err := vc2m.Allocate(sys, vc2m.Options{Provenance: prov})
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range sys.Tasks() {
		task.WCET.Scale(3)
	}
	res, err := vc2m.Simulate(a, 500, vc2m.SimOptions{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Missed == 0 {
		t.Fatal("tripled WCETs missed no deadline")
	}
	return report.BuildRun(report.RunInput{
		Title: "misses", Seed: 7, Mode: "flattening", Platform: sys.Platform,
		Allocation: a, Sim: res, Diagnosis: vc2m.DiagnoseMisses(res.Events), Provenance: prov,
	})
}

// churnDoc is a churn run: one departure and one arrival on a base layout.
func churnDoc(t *testing.T) *report.Document {
	sys, err := vc2m.GenerateWorkload(vc2m.WorkloadConfig{Platform: vc2m.PlatformA, TargetRefUtil: 0.6, NumVMs: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	base, err := vc2m.Allocate(sys, vc2m.Options{})
	if err != nil {
		t.Fatal(err)
	}
	task := model.SimpleTask("new-t0", model.PlatformA, 100, 25)
	task.VM = "new"
	prov := vc2m.NewProvenance()
	res, err := vc2m.Incremental(base, vc2m.ChurnDelta{
		Departures: []string{sys.VMs[0].ID},
		Arrivals:   []*model.VM{{ID: "new", Tasks: []*model.Task{task}}},
	}, vc2m.Options{Seed: 9, Provenance: prov})
	if err != nil {
		t.Fatal(err)
	}
	return report.BuildRun(report.RunInput{
		Title: "churn", Seed: 9, Mode: "flattening", Platform: res.Allocation.Platform,
		Allocation: res.Allocation, Provenance: prov,
	})
}

// sweepDoc is a small schedulability sweep.
func sweepDoc(t *testing.T) *report.Document {
	prov := provenance.New()
	res, err := experiment.RunSchedulability(experiment.SchedConfig{
		Platform: model.PlatformC, Dist: workload.Uniform,
		UtilMin: 0.8, UtilMax: 1.6, UtilStep: 0.8, TasksetsPerPoint: 3,
		Seed: 1, Provenance: prov,
	})
	if err != nil {
		t.Fatal(err)
	}
	return report.BuildSweep(report.SweepInput{
		Title: "sweep", Seed: 1, Platform: model.PlatformC,
		Sweep: res.ReportSweep(), Provenance: prov,
	})
}

// FuzzReportMarshal drives the decision writer with arbitrary strings
// (HTML-sensitive bytes, control bytes, invalid UTF-8, U+2028/2029),
// integers and floats (the 1e-6 and 1e21 format boundaries, -0,
// subnormals, NaN, ±Inf): Marshal must equal encoding/json, and fail where
// it fails; EachDecisionLine over what it writes must equal json.Encoder
// over the decisions. The corpus starts from every decision of the
// admitted and rejected golden documents.
func FuzzReportMarshal(f *testing.F) {
	f.Add("t1", "core 0", "dbf <= sbf at t=10", 0.5, 3, 2, true, "cache")
	f.Add("<b>&amp;</b>", "\x00\x1f\t\n\r\b\f\"\\\x7f", "\xff\xfe\u2028\u2029\xe2\x80", 1e-6, -1, 0, false, "")
	f.Add(`say "hi"`, "a\n    }\n  ]", `"reason": "x", <a href="&">`, 2.5, 1, 1, false, "bw")
	f.Add("\n    {", `{"seq": 0}`, ",\n    {\n      \"seq\": 1", -0.25, 0, 7, true, "cpu")
	for _, doc := range []*report.Document{buildRunDoc(f, 1.0, 7), buildRunDoc(f, 4.5, 3)} {
		for _, d := range doc.Decisions {
			violated := ""
			if len(d.Violated) > 0 {
				violated = string(d.Violated[0])
			}
			f.Add(d.Subject, d.Target, d.Reason, d.Value, d.Cache, d.BW, d.Accepted, violated)
		}
	}
	for _, v := range []float64{
		9.999999999999999e-07, 1e21, 999999999999999900000, -1.2345678901234567e-7,
		math.Copysign(0, -1), 5e-324, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add("s", "t", "r", v, 20, 20, true, "bw")
	}
	f.Fuzz(func(t *testing.T, subject, target, reason string, value float64, cache, bw int, accepted bool, violated string) {
		d := provenance.Decision{
			Seq: cache, Stage: target, Kind: subject, Subject: subject, Target: target,
			Cache: cache, BW: bw, Value: value,
			Accepted: accepted, Reason: reason,
		}
		if violated != "" {
			d.Violated = []provenance.Resource{provenance.Resource(violated), provenance.CPU}
		}
		doc := &report.Document{
			Schema: report.SchemaVersion, Title: reason, Kind: report.KindRun, Seed: int64(bw),
			Decisions: []provenance.Decision{d, {Seq: bw, Stage: "csa", Kind: "interface", Value: -value}},
		}
		got, gotErr := report.Marshal(doc)
		spec, specErr := json.MarshalIndent(doc, "", "  ")
		if (gotErr == nil) != (specErr == nil) {
			t.Fatalf("errors differ: Marshal %v, encoding/json %v", gotErr, specErr)
		}
		if gotErr == nil && !bytes.Equal(got, append(spec, '\n')) {
			t.Fatalf("Marshal differs from encoding/json:\ngot:  %q\nwant: %q", got, spec)
		}
		if gotErr == nil {
			assertDecisionLines(t, got, doc.Decisions)
		}

		// The same decisions from a recorder that repeats them, twice
		// over: the second repeat copies a range holding the first. A
		// built document's decisions may be edited, so cache picks a
		// source or a copy to change after BuildRun.
		prov := provenance.New()
		prov.Record(d)
		prov.Record(doc.Decisions[1])
		prov.RecordRepeat(0, 2)
		prov.RecordRepeat(1, 4)
		rdoc := report.BuildRun(report.RunInput{Title: reason, Seed: int64(bw), Provenance: prov})
		if edit := uint(cache) % 7; edit < uint(len(rdoc.Decisions)) {
			rdoc.Decisions[edit].Reason += target
			rdoc.Decisions[edit].Value = float64(bw)
		}
		got, gotErr = report.Marshal(rdoc)
		spec, specErr = json.MarshalIndent(rdoc, "", "  ")
		if (gotErr == nil) != (specErr == nil) {
			t.Fatalf("repeats: errors differ: Marshal %v, encoding/json %v", gotErr, specErr)
		}
		if gotErr == nil && !bytes.Equal(got, append(spec, '\n')) {
			t.Fatalf("repeats: Marshal differs from encoding/json:\ngot:  %q\nwant: %q", got, spec)
		}
	})
}

// TestMarshalRepeats: a document whose recorder repeated ranges of its
// stream marshals to encoding/json's bytes, also after any one of its
// decisions, a source or a copy, was edited after BuildRun.
func TestMarshalRepeats(t *testing.T) {
	sys, err := vc2m.GenerateWorkload(vc2m.WorkloadConfig{Platform: vc2m.PlatformA, TargetRefUtil: 1.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	prov := vc2m.NewProvenance()
	a, err := vc2m.Allocate(sys, vc2m.Options{Mode: vc2m.ExistingCSA, Provenance: prov})
	if err != nil {
		t.Fatal(err)
	}
	repeats := prov.Repeats()
	if len(repeats) == 0 {
		t.Fatal("the existing-CSA run repeats no packing attempt")
	}
	build := func() *report.Document {
		return report.BuildRun(report.RunInput{Title: "repeats", Seed: 1, Mode: "existing", Platform: sys.Platform, Allocation: a, Provenance: prov})
	}
	assertMarshalMatchesEncodingJSON(t, build())

	// Edit one field of the first or last decision of the first repeat's
	// source or copy at a time, and restore it after the check: whichever
	// field differs, the copy must be written afresh.
	edits := []func(d *provenance.Decision){
		func(d *provenance.Decision) { d.Stage += "x" },
		func(d *provenance.Decision) { d.Kind += "x" },
		func(d *provenance.Decision) { d.Subject += "x" },
		func(d *provenance.Decision) { d.Target += "x" },
		func(d *provenance.Decision) { d.Cache++ },
		func(d *provenance.Decision) { d.BW++ },
		func(d *provenance.Decision) { d.Value = math.Nextafter(d.Value, math.Inf(1)) },
		func(d *provenance.Decision) { d.Accepted = !d.Accepted },
		func(d *provenance.Decision) { d.Reason += " (edited)" },
		func(d *provenance.Decision) { d.Violated = []provenance.Resource{provenance.Cache} },
	}
	r := repeats[0]
	for _, i := range []int{r.From, r.From + r.N - 1, r.At, r.At + r.N - 1} {
		for _, edit := range edits {
			doc := build()
			saved := doc.Decisions[i]
			edit(&doc.Decisions[i])
			assertMarshalMatchesEncodingJSON(t, doc)
			doc.Decisions[i] = saved
		}
	}
	// Dropping the first decision shifts every position: a repeat then
	// names decisions that no longer match and must not be copied.
	doc := build()
	doc.Decisions = doc.Decisions[1:]
	assertMarshalMatchesEncodingJSON(t, doc)
}
