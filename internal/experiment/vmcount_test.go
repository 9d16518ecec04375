package experiment

import (
	"strings"
	"testing"

	"vc2m/internal/model"
)

func TestRunVMCount(t *testing.T) {
	res, err := RunVMCount(VMCountConfig{
		Platform:         model.PlatformA,
		Util:             1.0,
		VMCounts:         []int{1, 4},
		TasksetsPerPoint: 8,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fractions) != 3 {
		t.Fatalf("got %d solutions, want 3", len(res.Fractions))
	}
	for _, name := range sortedKeys(res.Fractions) {
		fs := res.Fractions[name]
		if len(fs) != 2 {
			t.Fatalf("%s: %d points, want 2", name, len(fs))
		}
		for _, f := range fs {
			if f < 0 || f > 1 {
				t.Errorf("%s: fraction %v out of range", name, f)
			}
		}
	}
}

func TestVMCountInvarianceOfOverheadFreeAnalyses(t *testing.T) {
	// The core claim: flattening and overhead-free schedulability do not
	// degrade with VM count, while the existing CSA's does.
	res, err := RunVMCount(VMCountConfig{
		Platform:         model.PlatformA,
		Util:             1.0,
		VMCounts:         []int{1, 8},
		TasksetsPerPoint: 10,
		Seed:             3,
	})
	if err != nil {
		t.Fatal(err)
	}
	flat := res.Fractions["Heuristic (flattening)"]
	if flat[1] < flat[0]-0.11 {
		t.Errorf("flattening degraded with VM count: %v -> %v", flat[0], flat[1])
	}
	ex := res.Fractions["Heuristic (existing CSA)"]
	if ex[1] >= ex[0] && ex[0] > 0 {
		// At utilization 1.0 with 8 VMs the existing CSA has ~32 VCPUs of
		// overhead; it must schedule strictly less than with 1 VM.
		t.Errorf("existing CSA did not degrade with VM count: %v -> %v", ex[0], ex[1])
	}
}

func TestVMCountTable(t *testing.T) {
	res, err := RunVMCount(VMCountConfig{
		Platform:         model.PlatformA,
		Util:             0.6,
		VMCounts:         []int{1, 2},
		TasksetsPerPoint: 4,
		Seed:             5,
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Table()
	if !strings.Contains(tbl, "existing CSA") || !strings.Contains(tbl, "VMs") {
		t.Errorf("table malformed:\n%s", tbl)
	}
}

func TestRunVMCountValidation(t *testing.T) {
	if _, err := RunVMCount(VMCountConfig{Platform: model.Platform{}, Util: 1}); err == nil {
		t.Error("invalid platform accepted")
	}
	if _, err := RunVMCount(VMCountConfig{Platform: model.PlatformA, Util: 0}); err == nil {
		t.Error("zero utilization accepted")
	}
}
