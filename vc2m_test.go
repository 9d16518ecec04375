package vc2m

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
)

func simpleSystem(t *testing.T) *System {
	t.Helper()
	wcet, err := BenchmarkWCET(PlatformA, "streamcluster", 10)
	if err != nil {
		t.Fatal(err)
	}
	return &System{
		Platform: PlatformA,
		VMs: []*VM{
			{ID: "vm0", Tasks: []*Task{
				NewTask("control", "vm0", 100, ConstWCET(PlatformA, 10)),
				NewTask("vision", "vm0", 200, wcet),
			}},
			{ID: "vm1", Tasks: []*Task{
				NewTask("logger", "vm1", 400, ConstWCET(PlatformA, 20)),
			}},
		},
	}
}

func TestAllocateQuickstart(t *testing.T) {
	a, err := Allocate(simpleSystem(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Schedulable {
		t.Error("allocation not marked schedulable")
	}
	if len(a.Cores) == 0 {
		t.Error("no cores allocated")
	}
}

func TestAllocateAllModes(t *testing.T) {
	for _, mode := range []Mode{Flattening, OverheadFree, ExistingCSA} {
		a, err := Allocate(simpleSystem(t), Options{Mode: mode, Seed: 7})
		if err != nil {
			t.Errorf("mode %v: %v", mode, err)
			continue
		}
		if err := a.Validate(nil); err != nil {
			t.Errorf("mode %v: invalid allocation: %v", mode, err)
		}
	}
}

func TestAllocateRejectsInvalidSystem(t *testing.T) {
	sys := simpleSystem(t)
	sys.VMs[0].Tasks[0].Period = -1
	if _, err := Allocate(sys, Options{}); err == nil {
		t.Error("invalid system accepted")
	}
}

func TestAllocateUnschedulable(t *testing.T) {
	sys := &System{Platform: PlatformA, VMs: []*VM{{ID: "vm0", Tasks: []*Task{
		NewTask("t1", "vm0", 10, ConstWCET(PlatformA, 9)),
		NewTask("t2", "vm0", 10, ConstWCET(PlatformA, 9)),
		NewTask("t3", "vm0", 10, ConstWCET(PlatformA, 9)),
		NewTask("t4", "vm0", 10, ConstWCET(PlatformA, 9)),
		NewTask("t5", "vm0", 10, ConstWCET(PlatformA, 9)),
	}}}}
	if _, err := Allocate(sys, Options{}); !errors.Is(err, ErrNotSchedulable) {
		t.Errorf("expected ErrNotSchedulable, got %v", err)
	}
}

func TestSimulateAllocation(t *testing.T) {
	sys := simpleSystem(t)
	a, err := Allocate(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(a, 2200, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Missed != 0 {
		t.Errorf("schedulable allocation missed %d deadlines", res.Missed)
	}
	if res.Completed == 0 {
		t.Error("no jobs completed")
	}
	if _, ok := res.Tasks["control"]; !ok {
		t.Error("per-task metrics missing")
	}
}

func TestSimulateInvalidHorizon(t *testing.T) {
	a, err := Allocate(simpleSystem(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(a, 0, SimOptions{}); err == nil {
		t.Error("zero horizon accepted")
	}
}

func TestBenchmarkWCET(t *testing.T) {
	tab, err := BenchmarkWCET(PlatformC, "canneal", 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tab.Reference()-5) > 1e-9 {
		t.Errorf("reference = %v, want 5", tab.Reference())
	}
	if tab.At(PlatformC.Cmin, PlatformC.Bmin) <= 5 {
		t.Error("canneal must slow down under minimal resources")
	}
	if _, err := BenchmarkWCET(PlatformA, "nope", 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestBenchmarksList(t *testing.T) {
	names := Benchmarks()
	if len(names) != 13 {
		t.Errorf("got %d benchmarks, want 13", len(names))
	}
}

func TestSolutionsExposed(t *testing.T) {
	sols := Solutions()
	if len(sols) != 5 {
		t.Fatalf("got %d solutions, want 5", len(sols))
	}
	sys := simpleSystem(t)
	for _, sol := range sols {
		a, err := sol.Allocate(sys, nil) // nil RNG = deterministic default
		if errors.Is(err, ErrNotSchedulable) {
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", sol.Name(), err)
			continue
		}
		if err := a.Validate(sys.Tasks()); err != nil {
			t.Errorf("%s: %v", sol.Name(), err)
		}
	}
}

func TestGenerateWorkload(t *testing.T) {
	sys, err := GenerateWorkload(WorkloadConfig{
		Platform:      PlatformA,
		TargetRefUtil: 0.8,
		Distribution:  "light",
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Validate(); err != nil {
		t.Errorf("generated workload invalid: %v", err)
	}
	if sys.RefUtil() < 0.8 {
		t.Errorf("utilization %v below target", sys.RefUtil())
	}
	if _, err := GenerateWorkload(WorkloadConfig{Platform: PlatformA, TargetRefUtil: 1, Distribution: "nope"}); err == nil {
		t.Error("unknown distribution accepted")
	}
}

func TestWCETFromFunc(t *testing.T) {
	tab := WCETFromFunc(PlatformA, func(c, b int) float64 { return float64(100 - c - b) })
	if math.Float64bits(tab.At(2, 1)) != math.Float64bits(97) {
		t.Errorf("At(2,1) = %v, want 97", tab.At(2, 1))
	}
}

func TestAllocateDeterministicUnderSeed(t *testing.T) {
	sys, err := GenerateWorkload(WorkloadConfig{Platform: PlatformA, TargetRefUtil: 1.0, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	a1, err1 := Allocate(sys, Options{Mode: OverheadFree, Seed: 5})
	a2, err2 := Allocate(sys, Options{Mode: OverheadFree, Seed: 5})
	if (err1 == nil) != (err2 == nil) {
		t.Fatal("determinism broken")
	}
	if err1 == nil && len(a1.Cores) != len(a2.Cores) {
		t.Error("same seed produced different core counts")
	}
}

func TestMeasuredWCETPublicAPI(t *testing.T) {
	tab, err := MeasuredWCET(PlatformA, "ferret", 10, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tab.Reference()-10) > 1e-9 {
		t.Errorf("reference = %v, want 10", tab.Reference())
	}
	if err := tab.CheckMonotone(); err != nil {
		t.Errorf("measured table not monotone: %v", err)
	}
	if _, err := MeasuredWCET(PlatformA, "nope", 10, 1000); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRenderGanttPublicAPI(t *testing.T) {
	a, err := Allocate(simpleSystem(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(a, 400, SimOptions{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	g := RenderGantt(res, 0, 200, 60)
	if !strings.Contains(g, "core 0") || !strings.Contains(g, "#") {
		t.Errorf("gantt malformed:\n%s", g)
	}
}

func TestAdmitPublicAPI(t *testing.T) {
	a, err := Allocate(simpleSystem(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	newVM := &VM{ID: "vm2", Tasks: []*Task{
		NewTask("late-arrival", "vm2", 100, ConstWCET(PlatformA, 20)),
	}}
	out, err := Admit(a, newVM, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(out, 1000, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Missed != 0 {
		t.Errorf("admitted system missed %d deadlines", res.Missed)
	}
	if _, ok := res.Tasks["late-arrival"]; !ok {
		t.Error("admitted task absent from the simulation")
	}
}

func TestReleasePublicAPI(t *testing.T) {
	a, err := Allocate(simpleSystem(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	newVM := &VM{ID: "vm9", Tasks: []*Task{
		NewTask("guest", "vm9", 100, ConstWCET(PlatformA, 10)),
	}}
	grown, err := Admit(a, newVM, Options{})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Release(grown, "vm9")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range back.VCPUs() {
		if v.VM == "vm9" {
			t.Error("released VM still present")
		}
	}
	// Simulate a common multiple of all periods (100/200/400 ms) so each
	// VCPU's observed share is directly comparable to its bandwidth
	// (partial trailing periods would otherwise inflate the share).
	res, err := Simulate(back, 2000, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Missed != 0 {
		t.Errorf("post-release system missed %d deadlines", res.Missed)
	}
	// Observed per-VCPU consumption never exceeds analytic bandwidth.
	for _, core := range back.Cores {
		for _, v := range core.VCPUs {
			if busy := res.VCPUBusy[v.ID]; busy > v.Bandwidth(core.Cache, core.BW)+0.01 {
				t.Errorf("VCPU %s consumed %v, analytic bandwidth %v",
					v.ID, busy, v.Bandwidth(core.Cache, core.BW))
			}
		}
	}
}

func TestTracePublicAPI(t *testing.T) {
	// The flight-recorder journey behind `vc2m-sim -trace-out`: simulate
	// with Chrome and JSONL sinks attached, then check the Chrome export
	// is well-formed trace-event JSON and the JSONL stream round-trips.
	a, err := Allocate(simpleSystem(t), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var chromeBuf, jsonlBuf bytes.Buffer
	cw := NewTraceChrome(&chromeBuf)
	jw := NewTraceJSONL(&jsonlBuf)
	mem := NewTraceMemory()
	res, err := Simulate(a, 500, SimOptions{Trace: MultiTrace(cw, jw, mem)})
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chromeBuf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	slices := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			slices++
		}
	}
	if res.Completed > 0 && slices == 0 {
		t.Error("jobs completed but Chrome export has no duration slices")
	}

	events, err := ReadTraceJSONL(&jsonlBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(mem.Events()) {
		t.Fatalf("JSONL round-trip lost events: %d vs %d", len(events), len(mem.Events()))
	}
	for i, ev := range events {
		if ev != mem.Events()[i] {
			t.Fatalf("JSONL round-trip diverges at %d: %+v vs %+v", i, ev, mem.Events()[i])
		}
	}
	if rep := DiagnoseMisses(events); len(rep.Misses) != int(res.Missed) {
		t.Errorf("diagnosis found %d misses, simulator reported %d", len(rep.Misses), res.Missed)
	}
}

func TestEndToEndWorkloadPipeline(t *testing.T) {
	// The full user journey: generate, allocate, validate, simulate.
	sys, err := GenerateWorkload(WorkloadConfig{Platform: PlatformB, TargetRefUtil: 1.2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Allocate(sys, Options{Mode: Flattening, Seed: 1})
	if errors.Is(err, ErrNotSchedulable) {
		t.Skip("workload unschedulable at this seed")
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(sys.Tasks()); err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(a, 2200, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Missed != 0 {
		t.Errorf("missed %d deadlines", res.Missed)
	}
}
