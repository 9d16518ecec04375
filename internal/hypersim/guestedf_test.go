package hypersim

import (
	"testing"

	"vc2m/internal/csa"
	"vc2m/internal/model"
	"vc2m/internal/timeunit"
)

// TestGuestEDFOrdersTasksWithinVCPU verifies the guest-OS side of the
// hierarchy: among active tasks inside one VCPU, the earliest-deadline
// job runs first.
func TestGuestEDFOrdersTasksWithinVCPU(t *testing.T) {
	p := model.PlatformA
	short := model.SimpleTask("short", p, 10, 2)
	short.VM = "vm"
	long := model.SimpleTask("long", p, 40, 8)
	long.VM = "vm"
	v, err := csa.WellRegulatedVCPU([]*model.Task{short, long}, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := &model.Allocation{
		Platform:    p,
		Cores:       []*model.CoreAlloc{{Core: 0, Cache: 10, BW: 10, VCPUs: []*model.VCPU{v}}},
		Schedulable: true,
	}
	s, err := New(a, Config{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(timeunit.FromMillis(400))
	if res.Missed != 0 {
		t.Fatalf("missed %d deadlines", res.Missed)
	}
	// At every VCPU period start both tasks may be active; "short"
	// (deadline +10) must always precede "long" (deadline +40) within the
	// same period window.
	period := timeunit.FromMillis(10)
	firstInPeriod := map[int64]string{}
	for _, e := range res.Trace {
		if e.Task == "" {
			continue
		}
		k := int64(e.Start / period)
		if _, ok := firstInPeriod[k]; !ok {
			firstInPeriod[k] = e.Task
		}
	}
	for _, k := range sortedKeys(firstInPeriod) {
		task := firstInPeriod[k]
		// In periods where "short" has a fresh job (every period), it
		// must run before "long".
		if task != "short" {
			// "long" may legitimately start a period if "short" finished
			// within a previous slice that crossed the boundary — but with
			// synchronized releases at every 10 ms, short is always fresh.
			t.Fatalf("period %d started with %q, want the earliest-deadline task \"short\"", k, task)
		}
	}
}

// TestGuestEDFTieBreakByIndex: equal deadlines inside a VCPU resolve by
// task index, deterministically.
func TestGuestEDFTieBreakByIndex(t *testing.T) {
	p := model.PlatformA
	t1 := model.SimpleTask("first", p, 10, 2)
	t1.VM = "vm"
	t2 := model.SimpleTask("second", p, 10, 2)
	t2.VM = "vm"
	v, err := csa.WellRegulatedVCPU([]*model.Task{t1, t2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := &model.Allocation{
		Platform:    p,
		Cores:       []*model.CoreAlloc{{Core: 0, Cache: 10, BW: 10, VCPUs: []*model.VCPU{v}}},
		Schedulable: true,
	}
	s, err := New(a, Config{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(timeunit.FromMillis(100))
	period := timeunit.FromMillis(10)
	for _, e := range res.Trace {
		if e.Task == "" {
			continue
		}
		off := e.Start % period
		switch e.Task {
		case "first":
			if off >= timeunit.FromMillis(2) {
				t.Fatalf("lower-index task ran at offset %v, want [0, 2ms)", off)
			}
		case "second":
			if off < timeunit.FromMillis(2) {
				t.Fatalf("higher-index task ran at offset %v, want [2ms, 4ms)", off)
			}
		}
	}
}
