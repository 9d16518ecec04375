package alloc

import (
	"errors"
	"fmt"
	"testing"

	"vc2m/internal/model"
	"vc2m/internal/parsec"
	"vc2m/internal/rngutil"
)

// baseAllocation builds a lightly loaded schedulable allocation to admit
// into.
func baseAllocation(t *testing.T) (*model.Allocation, []*model.Task) {
	t.Helper()
	vm := mkVM("vm0",
		model.SimpleTask("t1", model.PlatformA, 100, 20),
		model.SimpleTask("t2", model.PlatformA, 200, 40),
	)
	sys := &model.System{Platform: model.PlatformA, VMs: []*model.VM{vm}}
	h := &Heuristic{Mode: Flattening}
	a, err := h.Allocate(sys, rngutil.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return a, sys.Tasks()
}

func TestAdmitPlacesNewVM(t *testing.T) {
	a, baseTasks := baseAllocation(t)
	newVM := mkVM("vm1",
		model.SimpleTask("n1", model.PlatformA, 100, 15),
		model.SimpleTask("n2", model.PlatformA, 400, 60),
	)
	out, err := Admit(a, newVM, Flattening, rngutil.New(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]*model.Task(nil), baseTasks...), newVM.Tasks...)
	if err := out.Validate(all); err != nil {
		t.Fatalf("admitted allocation invalid: %v", err)
	}
	// The original allocation is untouched.
	if err := a.Validate(baseTasks); err != nil {
		t.Fatalf("original allocation mutated: %v", err)
	}
}

func TestAdmitDoesNotMoveExistingVCPUs(t *testing.T) {
	a, _ := baseAllocation(t)
	before := map[string]int{}
	for _, core := range a.Cores {
		for _, v := range core.VCPUs {
			before[v.ID] = core.Core
		}
	}
	newVM := mkVM("vm1", model.SimpleTask("n1", model.PlatformA, 100, 30))
	out, err := Admit(a, newVM, Flattening, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, core := range out.Cores {
		for _, v := range core.VCPUs {
			if want, ok := before[v.ID]; ok && want != core.Core {
				t.Errorf("existing VCPU %s moved from core %d to %d", v.ID, want, core.Core)
			}
		}
	}
	// Partition counts of pre-existing cores never shrink.
	for _, oldCore := range a.Cores {
		for _, newCore := range out.Cores {
			if newCore.Core == oldCore.Core {
				if newCore.Cache < oldCore.Cache || newCore.BW < oldCore.BW {
					t.Errorf("core %d partitions shrank: (%d,%d) -> (%d,%d)",
						oldCore.Core, oldCore.Cache, oldCore.BW, newCore.Cache, newCore.BW)
				}
			}
		}
	}
}

func TestAdmitGrowsResourcesForHungryVM(t *testing.T) {
	a, _ := baseAllocation(t)
	bm, err := parsec.ByName("streamcluster")
	if err != nil {
		t.Fatal(err)
	}
	hungry := &model.Task{ID: "hungry", VM: "vm1", Period: 100,
		WCET: bm.WCETTable(model.PlatformA, 55), Benchmark: "streamcluster"}
	newVM := &model.VM{ID: "vm1", Tasks: []*model.Task{hungry}}
	out, err := Admit(a, newVM, Flattening, nil, nil)
	if err != nil {
		t.Fatalf("hungry VM not admitted despite ample spare partitions: %v", err)
	}
	// The host core must have been granted more than the baseline
	// partitions for the memory-bound task to fit (bandwidth at (2,1) is
	// far above 1).
	for _, core := range out.Cores {
		for _, v := range core.VCPUs {
			if len(v.Tasks) == 1 && v.Tasks[0].ID == "hungry" {
				if core.Cache == model.PlatformA.Cmin && core.BW == model.PlatformA.Bmin {
					t.Error("hungry task admitted without granting partitions")
				}
			}
		}
	}
}

func TestAdmitRejectsOverload(t *testing.T) {
	a, _ := baseAllocation(t)
	var tasks []*model.Task
	for i := 0; i < 6; i++ {
		tasks = append(tasks, model.SimpleTask(string(rune('a'+i)), model.PlatformA, 100, 90))
	}
	newVM := mkVM("vm1", tasks...)
	if _, err := Admit(a, newVM, Flattening, nil, nil); !errors.Is(err, model.ErrNotSchedulable) {
		t.Errorf("expected ErrNotSchedulable, got %v", err)
	}
	// And the original remains valid.
	if !a.Schedulable {
		t.Error("original allocation corrupted by rejected admission")
	}
}

func TestAdmitRequiresSchedulableBase(t *testing.T) {
	bad := &model.Allocation{Platform: model.PlatformA}
	newVM := mkVM("vm1", model.SimpleTask("n1", model.PlatformA, 100, 10))
	if _, err := Admit(bad, newVM, Flattening, nil, nil); err == nil {
		t.Error("unschedulable base accepted")
	}
	if _, err := Admit(nil, newVM, Flattening, nil, nil); err == nil {
		t.Error("nil base accepted")
	}
}

func TestReleaseRemovesVM(t *testing.T) {
	a, baseTasks := baseAllocation(t)
	newVM := mkVM("vm1", model.SimpleTask("n1", model.PlatformA, 100, 30))
	grown, err := Admit(a, newVM, Flattening, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Release(grown, "vm1")
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(baseTasks); err != nil {
		t.Fatalf("post-release allocation invalid: %v", err)
	}
	for _, v := range back.VCPUs() {
		if v.VM == "vm1" {
			t.Error("released VM's VCPU still present")
		}
	}
	// Double release errors.
	if _, err := Release(back, "vm1"); err == nil {
		t.Error("double release accepted")
	}
	if _, err := Release(nil, "x"); err == nil {
		t.Error("nil allocation accepted")
	}
}

func TestAdmitReleaseChurn(t *testing.T) {
	// Admit/release churn: the allocation stays valid and capacity is
	// reusable — a VM admitted, released, and re-admitted always fits.
	a, baseTasks := baseAllocation(t)
	vmSpec := func() *model.VM {
		return mkVM("churn", model.SimpleTask("c1", model.PlatformA, 100, 40))
	}
	for round := 0; round < 5; round++ {
		vm := vmSpec()
		grown, err := Admit(a, vm, Flattening, rngutil.New(int64(round)), nil)
		if err != nil {
			t.Fatalf("round %d: admission failed: %v", round, err)
		}
		all := append(append([]*model.Task(nil), baseTasks...), vm.Tasks...)
		if err := grown.Validate(all); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		a, err = Release(grown, "churn")
		if err != nil {
			t.Fatalf("round %d: release failed: %v", round, err)
		}
	}
}

func TestAdmitPropertyAlwaysValid(t *testing.T) {
	// Property: for random VM streams, every successful admission yields
	// an allocation satisfying all structural invariants, and every
	// rejection leaves the previous allocation intact.
	base, baseTasks := baseAllocation(t)
	rng := rngutil.New(12345)
	a := base
	all := append([]*model.Task(nil), baseTasks...)
	for i := 0; i < 30; i++ {
		bm := parsec.All[rng.Intn(len(parsec.All))]
		period := 100.0 * float64(int(1)<<uint(rng.Intn(3)))
		ref := period * rng.Uniform(0.05, 0.5)
		task := &model.Task{
			ID: fmt.Sprintf("p%d", i), VM: fmt.Sprintf("pvm%d", i),
			Period: period, WCET: bm.WCETTable(model.PlatformA, ref), Benchmark: bm.Name,
		}
		vm := &model.VM{ID: task.VM, Tasks: []*model.Task{task}}
		next, err := Admit(a, vm, Flattening, rngutil.New(int64(i)), nil)
		if err != nil {
			continue
		}
		all = append(all, task)
		if err := next.Validate(all); err != nil {
			t.Fatalf("admission %d produced invalid allocation: %v", i, err)
		}
		a = next
	}
}

func TestAdmitSequential(t *testing.T) {
	// Admitting several VMs one after another keeps every intermediate
	// allocation valid; eventually admission fails cleanly.
	a, baseTasks := baseAllocation(t)
	all := append([]*model.Task(nil), baseTasks...)
	admitted := 0
	for i := 0; i < 12; i++ {
		vm := mkVM(string(rune('A'+i)),
			model.SimpleTask(string(rune('A'+i))+"-x", model.PlatformA, 100, 25))
		next, err := Admit(a, vm, Flattening, rngutil.New(int64(i)), nil)
		if errors.Is(err, model.ErrNotSchedulable) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, vm.Tasks...)
		if err := next.Validate(all); err != nil {
			t.Fatalf("after admission %d: %v", i, err)
		}
		a = next
		admitted++
	}
	// 4 cores, each admitted task has utilization 0.25 at full resources;
	// around a dozen should fit minus the base load and partition limits.
	if admitted < 6 {
		t.Errorf("only %d VMs admitted; expected several on a mostly idle platform", admitted)
	}
}
