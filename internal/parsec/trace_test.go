package parsec

import (
	"math"
	"testing"

	"vc2m/internal/model"
)

func traceProfile(t *testing.T, name string) *model.ResourceTable {
	t.Helper()
	bm, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := bm.TraceProfile(model.PlatformA, TraceConfig{Ops: 20000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestTraceProfileReferenceIsOne(t *testing.T) {
	tab := traceProfile(t, "dedup")
	if math.Abs(tab.Reference()-1) > 1e-12 {
		t.Errorf("reference = %v, want 1", tab.Reference())
	}
}

func TestTraceProfileMonotone(t *testing.T) {
	for _, name := range []string{"streamcluster", "swaptions", "ferret"} {
		if err := traceProfile(t, name).CheckMonotone(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestTraceProfileAtLeastOne(t *testing.T) {
	p := model.PlatformA
	tab := traceProfile(t, "canneal")
	for c := p.Cmin; c <= p.C; c += 3 {
		for b := p.Bmin; b <= p.B; b += 3 {
			if tab.At(c, b) < 1-1e-9 {
				t.Fatalf("slowdown %v < 1 at (%d,%d)", tab.At(c, b), c, b)
			}
		}
	}
}

func TestTraceProfileSensitivityOrdering(t *testing.T) {
	// The measured profiles must preserve the suite's sensitivity
	// ordering: memory-bound benchmarks slow down more at the minimum
	// allocation than compute-bound ones.
	p := model.PlatformA
	sc := traceProfile(t, "streamcluster").At(p.Cmin, p.Bmin)
	sw := traceProfile(t, "swaptions").At(p.Cmin, p.Bmin)
	if sc <= sw {
		t.Errorf("streamcluster measured slowdown %v not above swaptions %v", sc, sw)
	}
	// At a mid allocation the compute-bound benchmark is flat (its working
	// set fits; at (Cmin, Bmin) even it pays cold-miss bandwidth cost).
	if mid := traceProfile(t, "swaptions").At(5, 5); mid > 1.2 {
		t.Errorf("swaptions measured s(5,5) = %v, want nearly flat", mid)
	}
}

func TestTraceProfileAgreesWithAnalyticDirectionally(t *testing.T) {
	// Per benchmark, the measured and analytic slowdowns at a starved
	// allocation should agree within a factor of ~2.5 — the models differ
	// in detail but must tell the same story.
	p := model.PlatformA
	for _, name := range []string{"streamcluster", "ferret", "swaptions"} {
		bm, _ := ByName(name)
		analytic := bm.Profile(p).At(3, 2)
		measured := traceProfile(t, name).At(3, 2)
		ratio := measured / analytic
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("%s: measured %v vs analytic %v at (3,2), ratio %v outside [0.4, 2.5]",
				name, measured, analytic, ratio)
		}
	}
}

func TestTraceProfileDeterministic(t *testing.T) {
	a := traceProfile(t, "vips")
	b := traceProfile(t, "vips")
	if math.Float64bits(a.At(5, 5)) != math.Float64bits(b.At(5, 5)) {
		t.Error("same seed produced different trace profiles")
	}
}

func TestTraceProfileUsableAsTaskWCET(t *testing.T) {
	// The measured profile must plug into the task model directly.
	tab := traceProfile(t, "facesim").Scale(12)
	task := &model.Task{ID: "measured", VM: "vm", Period: 100, WCET: tab, Benchmark: "facesim"}
	if err := task.Validate(); err != nil {
		t.Errorf("trace-profiled task invalid: %v", err)
	}
}

func TestTraceProfileInvalidGeometry(t *testing.T) {
	bm, _ := ByName("dedup")
	if _, err := bm.TraceProfile(model.PlatformA, TraceConfig{Sets: 3}); err == nil {
		t.Error("invalid geometry accepted")
	}
}
