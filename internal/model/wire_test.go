package model_test

// Byte-identity tests for the vC2M wire schema: every document the
// allocation server serves or accepts must survive encode → decode →
// re-encode with identical bytes, so clients can cache, diff and hash
// reports without canonicalizing first. DeepEqual round trips (json_test)
// catch lossy decoding; these catch lossy *re-encoding* — float
// formatting drift, field-order instability, unit-ambiguous tags mapped
// onto the wrong field.

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"vc2m/internal/model"
	"vc2m/internal/parsec"
	"vc2m/internal/rngutil"
	"vc2m/internal/workload"
)

// generatedSystem returns a realistic multi-VM system with full WCET
// tables, the kind the server receives from vc2m-sim -server.
func generatedSystem(t *testing.T) *model.System {
	t.Helper()
	sys, err := workload.Generate(workload.Config{
		Platform:      model.PlatformC,
		TargetRefUtil: 1.5,
		Dist:          workload.BimodalMedium,
		NumVMs:        3,
	}, rngutil.New(42))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestSystemWireByteIdentity(t *testing.T) {
	sys := generatedSystem(t)
	first, err := model.EncodeSystem(sys)
	if err != nil {
		t.Fatal(err)
	}
	back, err := model.DecodeSystem(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := model.EncodeSystem(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("system wire encoding not byte-identical after round trip:\nfirst:  %d bytes\nsecond: %d bytes", len(first), len(second))
	}
}

func TestAllocationWireByteIdentity(t *testing.T) {
	task := model.SimpleTask("t1", model.PlatformA, 100, 10)
	task.VM = "vm0"
	a := &model.Allocation{
		Platform: model.PlatformA,
		Cores: []*model.CoreAlloc{
			{
				Core: 0, Cache: 5, BW: 4,
				VCPUs: []*model.VCPU{{
					ID: "v0", VM: "vm0", Index: 0, Period: 100,
					Budget:        model.ConstTable(model.PlatformA, 10),
					Tasks:         []*model.Task{task},
					WellRegulated: true, SyncedRelease: true,
				}},
			},
			{Core: 1, Cache: 3, BW: 2},
		},
		Schedulable: true,
		Solution:    "Heuristic (flattening)",
	}
	first, err := model.EncodeAllocation(a)
	if err != nil {
		t.Fatal(err)
	}
	back, err := model.DecodeAllocation(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := model.EncodeAllocation(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("allocation wire encoding not byte-identical after round trip:\nfirst:\n%s\nsecond:\n%s", first, second)
	}
}

// TestWireTagsAreUnitSuffixed pins the schema: every duration-valued
// field must name its unit in the tag, so a reader in another language
// cannot silently misinterpret milliseconds.
func TestWireTagsAreUnitSuffixed(t *testing.T) {
	sys := generatedSystem(t)
	data, err := model.EncodeSystem(sys)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"period_ms"`, `"wcet_ms"`} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("system wire encoding missing %s tag", want)
		}
	}
	for _, stale := range []string{`"Period"`, `"WCET"`, `"period"`, `"wcet"`} {
		if bytes.Contains(data, []byte(stale+":")) {
			t.Errorf("system wire encoding still has unit-ambiguous tag %s", stale)
		}
	}
}

// specMarshalTable is the table encoder's specification: json.Marshal of
// the five-member wire struct (refTableJSON in the in-package tests), with
// the values read back through the exported accessors.
func specMarshalTable(tab *model.ResourceTable) ([]byte, error) {
	cmin, cmax, bmin, bmax := tab.Bounds()
	var vals []float64
	if cmax >= cmin {
		vals = make([]float64, (cmax-cmin+1)*(bmax-bmin+1))
		for i := range vals {
			vals[i] = tab.AtOffset(i)
		}
	}
	return json.Marshal(struct {
		CMin   int       `json:"cmin"`
		CMax   int       `json:"cmax"`
		BMin   int       `json:"bmin"`
		BMax   int       `json:"bmax"`
		Values []float64 `json:"values"`
	}{cmin, cmax, bmin, bmax, vals})
}

// TestResourceTableMarshalMatchesEncodingJSON holds MarshalJSON to
// json.Marshal of the wire struct on hand-built tables and on the PARSEC
// tables of every platform: each benchmark's profile, its WCET tables at a
// few reference WCETs, and the tables of generated systems. Saturated
// PARSEC tables repeat most of their values, which the encoder copies.
func TestResourceTableMarshalMatchesEncodingJSON(t *testing.T) {
	mixed := model.NewResourceTable(3, 3, 1, 4)
	for b, v := range []float64{1e21, math.Copysign(0, -1), 5e-324, 123456.789} {
		mixed.Set(3, b+1, v)
	}
	signs := model.NewResourceTable(0, 1, 1, 3)
	for i, v := range []float64{0, math.Copysign(0, -1), math.Copysign(0, -1), 0, 0, 1e-7} {
		signs.Set(i/3, i%3+1, v)
	}
	tables := []*model.ResourceTable{
		model.NewResourceTableFor(model.PlatformA),
		model.ConstTable(model.PlatformC, 1e-7),
		{}, // the zero table: values null
		mixed,
		signs,
	}
	for i, p := range []model.Platform{model.PlatformA, model.PlatformB, model.PlatformC} {
		for _, bm := range parsec.All {
			tables = append(tables, bm.Profile(p), bm.WCETTable(p, 0.37), bm.WCETTable(p, 12.5))
		}
		sys, err := workload.Generate(workload.Config{
			Platform: p, TargetRefUtil: 1.2, Dist: workload.BimodalMedium, NumVMs: 2,
		}, rngutil.New(int64(i)+1))
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range sys.Tasks() {
			tables = append(tables, task.WCET)
		}
	}
	for _, tab := range tables {
		enc, err := tab.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		spec, err := specMarshalTable(tab)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, spec) {
			t.Errorf("MarshalJSON differs from encoding/json:\ndirect:        %s\nencoding/json: %s", enc, spec)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, at := range []int{model.PlatformC.Cmin, model.PlatformC.C} { // first value, and after a run
			tab := model.ConstTable(model.PlatformC, 1)
			tab.Set(at, model.PlatformC.Bmin, bad)
			if _, err := tab.MarshalJSON(); err == nil {
				t.Errorf("MarshalJSON encoded %v", bad)
			}
			if _, err := json.Marshal(tab); err == nil {
				t.Errorf("json.Marshal encoded a table holding %v", bad)
			}
		}
	}
}
