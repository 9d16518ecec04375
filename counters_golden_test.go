package vc2m

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"vc2m/internal/alloc"
	"vc2m/internal/rngutil"
)

// counterRuns performs the seeded runs whose search-effort counters the
// golden pins, one fresh recorder each: an existing-CSA allocation
// followed by a simulation, Baseline and Evenly-partition with the
// recorder attached through alloc.MetricsSetter, and one existing-CSA
// churn step.
func counterRuns(t *testing.T) map[string]map[string]int64 {
	t.Helper()
	out := map[string]map[string]int64{}

	sys, err := GenerateWorkload(WorkloadConfig{Platform: PlatformA, TargetRefUtil: 1.2, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewMetrics()
	a, err := Allocate(sys, Options{Mode: ExistingCSA, Seed: 4, Metrics: rec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(a, 500, SimOptions{Metrics: rec}); err != nil {
		t.Fatal(err)
	}
	out["allocate-existing+simulate"] = rec.Snapshot().Counters

	base, err := GenerateWorkload(WorkloadConfig{Platform: PlatformA, TargetRefUtil: 0.6, NumVMs: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, sol := range Solutions()[:2] { // Baseline, Evenly-partition
		rec := NewMetrics()
		sol.(alloc.MetricsSetter).SetMetrics(rec)
		if _, err := sol.Allocate(base, rngutil.New(4)); err != nil {
			t.Fatalf("%s: %v", sol.Name(), err)
		}
		out[sol.Name()] = rec.Snapshot().Counters
	}

	prev, err := Allocate(base, Options{Mode: ExistingCSA, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := GenerateWorkload(WorkloadConfig{Platform: PlatformA, TargetRefUtil: 0.3, NumVMs: 1, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	arrivals.VMs[0].ID = "arrival"
	for _, task := range arrivals.VMs[0].Tasks {
		task.ID = "arrival-" + task.ID
		task.VM = "arrival"
	}
	rec = NewMetrics()
	if _, err := Incremental(prev, ChurnDelta{
		Departures: []string{base.VMs[0].ID},
		Arrivals:   arrivals.VMs,
	}, Options{Mode: ExistingCSA, Seed: 9, Metrics: rec}); err != nil {
		t.Fatal(err)
	}
	out["incremental-existing"] = rec.Snapshot().Counters
	return out
}

// TestCounterGolden pins the exact search-effort counters of seeded runs.
// Counters are deterministic integer sums, so any change to a name or a
// value is a change in the work the analysis does (or in what it
// reports), never noise. Regenerate with VC2M_UPDATE_GOLDEN=1 only after
// an intentional change to the instrumentation.
func TestCounterGolden(t *testing.T) {
	got, err := json.MarshalIndent(counterRuns(t), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "counters_golden.json")
	if os.Getenv("VC2M_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (set VC2M_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("counters drifted from %s:\ngot:\n%s\nwant:\n%s\n(set VC2M_UPDATE_GOLDEN=1 to regenerate)", path, got, want)
	}
}
