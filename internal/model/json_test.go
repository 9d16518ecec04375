package model

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestResourceTableJSONRoundTrip(t *testing.T) {
	orig := NewResourceTable(2, 5, 1, 3)
	orig.Fill(func(c, b int) float64 { return float64(c*10 + b) })
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back ResourceTable
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	cmin, cmax, bmin, bmax := back.Bounds()
	if cmin != 2 || cmax != 5 || bmin != 1 || bmax != 3 {
		t.Fatalf("bounds after round trip: %d %d %d %d", cmin, cmax, bmin, bmax)
	}
	for c := 2; c <= 5; c++ {
		for b := 1; b <= 3; b++ {
			if math.Float64bits(back.At(c, b)) != math.Float64bits(orig.At(c, b)) {
				t.Fatalf("value mismatch at (%d,%d)", c, b)
			}
		}
	}
}

func TestResourceTableUnmarshalValidation(t *testing.T) {
	cases := []string{
		`{"cmin":5,"cmax":2,"bmin":1,"bmax":1,"values":[1]}`,      // inverted bounds
		`{"cmin":1,"cmax":2,"bmin":1,"bmax":2,"values":[1,2,3]}`,  // wrong count
		`{"cmin":-1,"cmax":2,"bmin":1,"bmax":2,"values":[1,2,3]}`, // negative
		`"nope"`, // wrong type
		`{"cmin":1,"cmax":1,"bmin":1,"bmax":1,"values":[2],"bogus":7}`,        // unknown member
		`{"cmin":1,"CMAX":1,"bmin":1,"bmax":1,"values":[2]}`,                  // case-variant member
		`{"cmin":1,"cmax":1,"bmin":1,"bmax":1,"values":[1e400]}`,              // out of range
		`{"cmin":1,"cmax":1,"bmin":1,"bmax":1,"values":2}`,                    // values not an array
		`{"cmin":0,"cmax":9223372036854775807,"bmin":0,"bmax":1,"values":[]}`, // size overflows int
	}
	for _, c := range cases {
		var tab ResourceTable
		if err := json.Unmarshal([]byte(c), &tab); err == nil {
			t.Errorf("accepted invalid table JSON %s", c)
		}
	}

	// The strict member check holds inside any enclosing document, whatever
	// the outer decoder's settings.
	var doc struct {
		T *ResourceTable `json:"t"`
	}
	bogus := `{"t":{"cmin":1,"cmax":1,"bmin":1,"bmax":1,"values":[2],"bogus":7,"CMAX":1}}`
	if err := json.Unmarshal([]byte(bogus), &doc); err == nil {
		t.Errorf("accepted a table with unknown members inside a document: %s", bogus)
	}
}

func TestSystemJSONRoundTrip(t *testing.T) {
	sys := &System{Platform: PlatformC, VMs: []*VM{
		{ID: "vm0", Tasks: []*Task{
			SimpleTask("t1", PlatformC, 100, 7),
			SimpleTask("t2", PlatformC, 200, 11),
		}},
	}}
	for _, task := range sys.VMs[0].Tasks {
		task.VM = "vm0"
	}
	data, err := EncodeSystem(sys)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSystem(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.VMs) != 1 || len(back.VMs[0].Tasks) != 2 {
		t.Fatalf("structure lost: %+v", back)
	}
	if back.Platform.Name != "C" || back.Platform.M != 4 {
		t.Errorf("platform lost: %+v", back.Platform)
	}
	if math.Abs(back.VMs[0].Tasks[1].RefWCET()-11) > 1e-12 {
		t.Errorf("task WCET lost: %v", back.VMs[0].Tasks[1].RefWCET())
	}
	if math.Float64bits(back.RefUtil()) != math.Float64bits(sys.RefUtil()) {
		t.Errorf("utilization changed: %v vs %v", back.RefUtil(), sys.RefUtil())
	}
}

func TestDecodeSystemRejectsInvalid(t *testing.T) {
	// A syntactically valid system that fails validation (duplicate IDs).
	sys := &System{Platform: PlatformA, VMs: []*VM{
		{ID: "vm0", Tasks: []*Task{SimpleTask("t1", PlatformA, 100, 1)}},
		{ID: "vm0", Tasks: []*Task{SimpleTask("t2", PlatformA, 100, 1)}},
	}}
	data, err := EncodeSystem(sys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSystem(data); err == nil {
		t.Error("duplicate VM IDs accepted")
	}
	if _, err := DecodeSystem([]byte("{")); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestAllocationJSONRoundTrip(t *testing.T) {
	task := SimpleTask("t1", PlatformA, 100, 10)
	task.VM = "vm0"
	a := &Allocation{
		Platform: PlatformA,
		Cores: []*CoreAlloc{{
			Core: 0, Cache: 8, BW: 6,
			VCPUs: []*VCPU{{
				ID: "v0", VM: "vm0", Period: 100,
				Budget: ConstTable(PlatformA, 10),
				Tasks:  []*Task{task},
			}},
		}},
		Schedulable: true,
		Solution:    "Heuristic (flattening)",
	}
	data, err := EncodeAllocation(a)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Heuristic (flattening)") {
		t.Error("solution label missing from JSON")
	}
	back, err := DecodeAllocation(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Cores) != 1 || back.Cores[0].Cache != 8 {
		t.Errorf("allocation structure lost: %+v", back.Cores[0])
	}
	if math.Float64bits(back.Cores[0].VCPUs[0].Budget.Reference()) != math.Float64bits(10) {
		t.Error("budget table lost")
	}
}

func TestDecodeAllocationRejectsStructurallyInvalid(t *testing.T) {
	a := &Allocation{
		Platform: PlatformA,
		Cores:    []*CoreAlloc{{Core: 99, Cache: 8, BW: 6}},
	}
	data, err := EncodeAllocation(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeAllocation(data); err == nil {
		t.Error("core index out of range accepted")
	}
}

// TestNullVMOrTaskIsAnError: a null VM or task decodes to a nil pointer,
// and Validate reports it instead of dereferencing it — for DecodeSystem
// and for any caller that builds a system by hand.
func TestNullVMOrTaskIsAnError(t *testing.T) {
	platform := `{"name":"A","m":4,"c":20,"b":20,"cmin":2,"bmin":1}`
	for _, tc := range []struct{ doc, want string }{
		{`{"platform":` + platform + `,"vms":[null]}`, "VM 0 is null"},
		{`{"platform":` + platform + `,"vms":[{"id":"v","tasks":[null]}]}`, `task 0 of VM "v" is null`},
		{`{"platform":` + platform + `,"vms":[{"id":"v","tasks":null},null]}`, "VM 1 is null"},
	} {
		_, err := DecodeSystem([]byte(tc.doc))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("DecodeSystem(%s) = %v, want an error containing %q", tc.doc, err, tc.want)
		}
	}
}
