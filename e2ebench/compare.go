package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of a (workload, metric) comparison.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within"
	verdictUnresolved = "unresolved"
)

// verdict compares one metric's per-rep values of the parent (old) and the
// change (new):
//
//   - better: every new rep beats every old rep, or the medians differ in
//     the good direction by more than the parent's own quartile distance;
//   - unresolved: either side's quartile distance is wider than the bound
//     and the two quartile ranges overlap, so noise could hide a
//     regression;
//   - worse: the new median is worse than the old by more than the bound;
//   - within: otherwise.
func verdict(spec metricSpec, old, new []float64) string {
	oq1, om, oq3 := quartiles(old)
	nq1, nm, nq3 := quartiles(new)
	if om == 0 || nm == 0 { //vc2m:floateq a zero median is the no-data sentinel
		return verdictUnresolved
	}
	sign := 1.0 // positive change = worse
	if spec.better == "higher" {
		sign = -1
	}
	change := sign * (nm - om) / om
	allBetter := true
	for _, o := range old {
		for _, n := range new {
			if sign*(n-o) >= 0 {
				allBetter = false
			}
		}
	}
	spread := max((oq3-oq1)/om, (nq3-nq1)/nm)
	overlap := nq1 <= oq3 && oq1 <= nq3
	switch {
	case allBetter:
		return verdictBetter
	case spread > spec.bound && overlap:
		return verdictUnresolved
	case change > spec.bound:
		return verdictWorse
	case -change > (oq3-oq1)/om:
		return verdictBetter
	}
	return verdictWithin
}

func loadReport(path string) (*benchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, reportSchema)
	}
	return &rep, nil
}

// compareFiles prints one row per (workload, end-to-end metric) present in
// both reports: each side's median and quartiles across reps, the change,
// the bound, and the verdict.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	old, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	cur, err := loadReport(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-20s %-18s %30s %30s %8s %6s  %s\n", "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "change", "bound", "verdict")
	for _, ow := range old.Workloads {
		var nw *workloadReport
		for _, c := range cur.Workloads {
			if c.Name == ow.Name {
				nw = c
			}
		}
		if nw == nil {
			fmt.Fprintf(w, "%-20s (absent from %s)\n", ow.Name, newPath)
			continue
		}
		for _, spec := range endToEnd {
			ov, nv := repSeries(ow, spec.name), repSeries(nw, spec.name)
			oq1, om, oq3 := quartiles(ov)
			nq1, nm, nq3 := quartiles(nv)
			change := 0.0
			if om != 0 { //vc2m:floateq a zero median is the no-data sentinel
				change = 100 * (nm - om) / om
			}
			fmt.Fprintf(w, "%-20s %-18s %30s %30s %+7.1f%% %5.0f%%  %s\n", ow.Name, spec.name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", om, oq1, oq3), fmt.Sprintf("%.4g [%.4g, %.4g]", nm, nq1, nq3),
				change, 100*spec.bound, verdict(spec, ov, nv))
		}
	}
	return nil
}

func repSeries(wr *workloadReport, name string) []float64 {
	var out []float64
	for _, r := range wr.measured() {
		out = append(out, r.Values[name])
	}
	return out
}
