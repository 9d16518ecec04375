package model

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"vc2m/internal/rngutil"
)

func TestPlatformValidate(t *testing.T) {
	for _, p := range []Platform{PlatformA, PlatformB, PlatformC} {
		if err := p.Validate(); err != nil {
			t.Errorf("built-in platform %s invalid: %v", p.Name, err)
		}
	}
	bad := []Platform{
		{Name: "m0", M: 0, C: 4, B: 4, Cmin: 1, Bmin: 1},
		{Name: "c<cmin", M: 1, C: 1, B: 4, Cmin: 2, Bmin: 1},
		{Name: "b<bmin", M: 1, C: 4, B: 0, Cmin: 1, Bmin: 1},
		{Name: "cmin0", M: 1, C: 4, B: 4, Cmin: 0, Bmin: 1},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("platform %s should be invalid", p.Name)
		}
	}
}

func TestPlatformByName(t *testing.T) {
	for _, name := range []string{"A", "B", "C", "a", "b", "c"} {
		p, err := PlatformByName(name)
		if err != nil {
			t.Errorf("PlatformByName(%q): %v", name, err)
		}
		if !strings.EqualFold(p.Name, name) {
			t.Errorf("PlatformByName(%q) returned platform %q", name, p.Name)
		}
	}
	if _, err := PlatformByName("D"); err == nil {
		t.Error("PlatformByName(\"D\") should fail")
	}
}

func TestPlatformParameters(t *testing.T) {
	// The evaluation platforms from Section 5.1.
	if PlatformA.M != 4 || PlatformA.C != 20 || PlatformA.B != 20 {
		t.Errorf("Platform A = %+v, want 4 cores, 20 partitions", PlatformA)
	}
	if PlatformB.M != 6 || PlatformB.C != 20 {
		t.Errorf("Platform B = %+v, want 6 cores, 20 partitions", PlatformB)
	}
	if PlatformC.M != 4 || PlatformC.C != 12 {
		t.Errorf("Platform C = %+v, want 4 cores, 12 partitions", PlatformC)
	}
}

func TestResourceTableBasics(t *testing.T) {
	tab := NewResourceTable(2, 4, 1, 3)
	cmin, cmax, bmin, bmax := tab.Bounds()
	if cmin != 2 || cmax != 4 || bmin != 1 || bmax != 3 {
		t.Fatalf("Bounds = %d %d %d %d", cmin, cmax, bmin, bmax)
	}
	tab.Set(2, 1, 10)
	tab.Set(4, 3, 1)
	if math.Float64bits(tab.At(2, 1)) != math.Float64bits(10) {
		t.Errorf("At(2,1) = %v, want 10", tab.At(2, 1))
	}
	if math.Float64bits(tab.Reference()) != math.Float64bits(1) {
		t.Errorf("Reference = %v, want 1 (value at cmax,bmax)", tab.Reference())
	}
}

func TestResourceTablePanicsOutOfRange(t *testing.T) {
	tab := NewResourceTable(2, 4, 1, 3)
	for _, cb := range [][2]int{{1, 1}, {5, 1}, {2, 0}, {2, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d,%d) did not panic", cb[0], cb[1])
				}
			}()
			tab.At(cb[0], cb[1])
		}()
	}
}

func TestNewResourceTablePanicsOnEmptyRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty range did not panic")
		}
	}()
	NewResourceTable(4, 2, 1, 3)
}

func TestResourceTableFillCloneScale(t *testing.T) {
	tab := NewResourceTable(1, 3, 1, 2)
	tab.Fill(func(c, b int) float64 { return float64(10*c + b) })
	if math.Float64bits(tab.At(2, 1)) != math.Float64bits(21) {
		t.Errorf("Fill: At(2,1) = %v, want 21", tab.At(2, 1))
	}
	cl := tab.Clone()
	cl.Scale(2)
	if math.Float64bits(cl.At(2, 1)) != math.Float64bits(42) {
		t.Errorf("Scale: At(2,1) = %v, want 42", cl.At(2, 1))
	}
	if math.Float64bits(tab.At(2, 1)) != math.Float64bits(21) {
		t.Error("Clone is not independent of the original")
	}
}

func TestResourceTableAddTable(t *testing.T) {
	a := NewResourceTable(1, 2, 1, 2)
	a.Fill(func(c, b int) float64 { return 1 })
	b := NewResourceTable(1, 2, 1, 2)
	b.Fill(func(c, bb int) float64 { return float64(c) })
	a.AddTable(b)
	if math.Float64bits(a.At(2, 1)) != math.Float64bits(3) {
		t.Errorf("AddTable: At(2,1) = %v, want 3", a.At(2, 1))
	}
}

func TestResourceTableAddTableMismatchPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		add  func(a, b *ResourceTable)
	}{
		{"AddTable", func(a, b *ResourceTable) { a.AddTable(b) }},
		{"AddScaled", func(a, b *ResourceTable) { a.AddScaled(b, 2) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched bounds did not panic", tc.name)
				}
			}()
			tc.add(NewResourceTable(1, 2, 1, 2), NewResourceTable(1, 3, 1, 2))
		}()
	}
}

// TestAddScaledMatchesCloneScaleAdd is the differential oracle for
// AddScaled: every entry must carry the bits of the clone path it
// replaced, t.AddTable(other.Clone().Scale(f)), which rounds the product
// before the sum. Entries and factors span subnormals, values near
// MaxFloat64 (whose products overflow) and +Inf.
func TestAddScaledMatchesCloneScaleAdd(t *testing.T) {
	rng := rngutil.New(2)
	special := []float64{0, math.SmallestNonzeroFloat64, 3e-310, 2.2250738585072014e-308,
		1e-300, 1, 1e300, math.MaxFloat64 / 3, math.MaxFloat64, math.Inf(1)}
	draw := func() float64 {
		if rng.Intn(3) == 0 {
			return special[rng.Intn(len(special))]
		}
		return math.Ldexp(rng.Float64(), rng.Intn(2100)-1075)
	}
	factors := []float64{1, 0.5, 0.25, 1.0 / 3, 3, 1e-300, 1e300, math.SmallestNonzeroFloat64}
	for trial := 0; trial < 200; trial++ {
		cmin, bmin := rng.Intn(3), rng.Intn(3)
		cmax, bmax := cmin+rng.Intn(20), bmin+rng.Intn(20)
		dst := NewResourceTable(cmin, cmax, bmin, bmax)
		src := NewResourceTable(cmin, cmax, bmin, bmax)
		dst.Fill(func(int, int) float64 { return draw() })
		src.Fill(func(int, int) float64 { return draw() })
		f := factors[trial%len(factors)]
		if trial >= 2*len(factors) {
			f = draw()
		}

		want := dst.Clone()
		want.AddTable(src.Clone().Scale(f))
		got := dst.Clone()
		got.AddScaled(src, f)
		for i, w := range want.vals {
			if math.Float64bits(got.vals[i]) != math.Float64bits(w) {
				t.Fatalf("trial %d, entry %d: %v + %v*%v: AddScaled = %v, clone path %v",
					trial, i, dst.vals[i], src.vals[i], f, got.vals[i], w)
			}
		}
	}
}

func TestSlowdownNormalization(t *testing.T) {
	tab := NewResourceTable(1, 2, 1, 1)
	tab.Set(1, 1, 6)
	tab.Set(2, 1, 2)
	out := tab.AppendSlowdown(make([]float64, 1, 2))
	if len(out) != 3 {
		t.Fatalf("AppendSlowdown onto one entry = %v, want 3 entries", out)
	}
	s := out[1:]
	if math.Float64bits(s[0]) != math.Float64bits(3) || math.Float64bits(s[1]) != math.Float64bits(1) {
		t.Errorf("appended slowdown = %v, want [3 1]", s)
	}
}

func TestSlowdownPanicsOnZeroReference(t *testing.T) {
	tab := NewResourceTable(1, 2, 1, 1)
	defer func() {
		if recover() == nil {
			t.Error("AppendSlowdown with zero reference did not panic")
		}
	}()
	tab.AppendSlowdown(nil)
}

func TestCheckMonotone(t *testing.T) {
	good := NewResourceTable(1, 3, 1, 3)
	good.Fill(func(c, b int) float64 { return float64(20 - c - b) })
	if err := good.CheckMonotone(); err != nil {
		t.Errorf("monotone table rejected: %v", err)
	}

	badC := NewResourceTable(1, 2, 1, 1)
	badC.Set(1, 1, 1)
	badC.Set(2, 1, 2) // increases with more cache
	if err := badC.CheckMonotone(); err == nil {
		t.Error("table increasing in c accepted")
	}

	badB := NewResourceTable(1, 1, 1, 2)
	badB.Set(1, 1, 1)
	badB.Set(1, 2, 2)
	if err := badB.CheckMonotone(); err == nil {
		t.Error("table increasing in b accepted")
	}

	neg := NewResourceTable(1, 1, 1, 1)
	neg.Set(1, 1, -1)
	if err := neg.CheckMonotone(); err == nil {
		t.Error("negative entry accepted")
	}
}

func TestTaskHelpers(t *testing.T) {
	task := SimpleTask("t1", PlatformA, 10, 1)
	if math.Float64bits(task.RefWCET()) != math.Float64bits(1) {
		t.Errorf("RefWCET = %v, want 1", task.RefWCET())
	}
	if math.Abs(task.RefUtil()-0.1) > 1e-12 {
		t.Errorf("RefUtil = %v, want 0.1", task.RefUtil())
	}
	if math.Abs(task.Util(2, 1)-0.1) > 1e-12 {
		t.Errorf("Util(2,1) = %v, want 0.1 for const table", task.Util(2, 1))
	}
	if err := task.Validate(); err != nil {
		t.Errorf("valid task rejected: %v", err)
	}
}

func TestTaskValidateRejectsBadTasks(t *testing.T) {
	if err := (&Task{ID: "x", Period: 0, WCET: ConstTable(PlatformA, 1)}).Validate(); err == nil {
		t.Error("zero period accepted")
	}
	if err := (&Task{ID: "x", Period: 10}).Validate(); err == nil {
		t.Error("nil WCET accepted")
	}
	if err := (&Task{ID: "x", Period: 10, WCET: ConstTable(PlatformA, 0)}).Validate(); err == nil {
		t.Error("zero WCET accepted")
	}
}

func TestVMAndSystemUtil(t *testing.T) {
	vm := &VM{ID: "vm1", Tasks: []*Task{
		SimpleTask("t1", PlatformA, 10, 1),
		SimpleTask("t2", PlatformA, 20, 4),
	}}
	if math.Abs(vm.RefUtil()-0.3) > 1e-12 {
		t.Errorf("VM RefUtil = %v, want 0.3", vm.RefUtil())
	}
	sys := &System{Platform: PlatformA, VMs: []*VM{vm}}
	if math.Abs(sys.RefUtil()-0.3) > 1e-12 {
		t.Errorf("System RefUtil = %v, want 0.3", sys.RefUtil())
	}
	if got := len(sys.Tasks()); got != 2 {
		t.Errorf("System.Tasks() returned %d tasks, want 2", got)
	}
	if err := sys.Validate(); err != nil {
		t.Errorf("valid system rejected: %v", err)
	}
}

func TestSystemValidateDuplicates(t *testing.T) {
	mk := func() *System {
		return &System{Platform: PlatformA, VMs: []*VM{
			{ID: "vm1", Tasks: []*Task{SimpleTask("t1", PlatformA, 10, 1)}},
			{ID: "vm2", Tasks: []*Task{SimpleTask("t2", PlatformA, 10, 1)}},
		}}
	}
	dupVM := mk()
	dupVM.VMs[1].ID = "vm1"
	if err := dupVM.Validate(); err == nil {
		t.Error("duplicate VM ID accepted")
	}
	dupTask := mk()
	dupTask.VMs[1].Tasks[0].ID = "t1"
	if err := dupTask.Validate(); err == nil {
		t.Error("duplicate task ID accepted")
	}
}

func TestSystemValidateTableBounds(t *testing.T) {
	sys := &System{Platform: PlatformA, VMs: []*VM{
		{ID: "vm1", Tasks: []*Task{SimpleTask("t1", PlatformC, 10, 1)}},
	}}
	if err := sys.Validate(); err == nil {
		t.Error("WCET table with wrong bounds accepted")
	}
}

func TestVCPUBandwidth(t *testing.T) {
	v := &VCPU{ID: "v1", Period: 10, Budget: ConstTable(PlatformA, 5)}
	if math.Float64bits(v.RefBandwidth()) != math.Float64bits(0.5) {
		t.Errorf("RefBandwidth = %v, want 0.5", v.RefBandwidth())
	}
	if math.Float64bits(v.Bandwidth(2, 1)) != math.Float64bits(0.5) {
		t.Errorf("Bandwidth(2,1) = %v, want 0.5", v.Bandwidth(2, 1))
	}
}

func TestCoreAllocUtilization(t *testing.T) {
	core := &CoreAlloc{Core: 0, Cache: 2, BW: 1, VCPUs: []*VCPU{
		{ID: "v1", Period: 10, Budget: ConstTable(PlatformA, 2)},
		{ID: "v2", Period: 20, Budget: ConstTable(PlatformA, 5)},
	}}
	if got := core.Utilization(); math.Abs(got-0.45) > 1e-12 {
		t.Errorf("Utilization = %v, want 0.45", got)
	}
}

func validAllocation() (*Allocation, []*Task) {
	task := SimpleTask("t1", PlatformA, 10, 1)
	v := &VCPU{ID: "v1", VM: "vm1", Period: 10,
		Budget: ConstTable(PlatformA, 1), Tasks: []*Task{task}}
	a := &Allocation{
		Platform: PlatformA,
		Cores: []*CoreAlloc{
			{Core: 0, Cache: 10, BW: 10, VCPUs: []*VCPU{v}},
		},
		Schedulable: true,
	}
	return a, []*Task{task}
}

func TestAllocationValidateAccepts(t *testing.T) {
	a, tasks := validAllocation()
	if err := a.Validate(tasks); err != nil {
		t.Errorf("valid allocation rejected: %v", err)
	}
}

func TestAllocationValidateRejections(t *testing.T) {
	t.Run("too many cache partitions", func(t *testing.T) {
		a, tasks := validAllocation()
		a.Cores[0].Cache = 21
		if err := a.Validate(tasks); err == nil {
			t.Error("accepted")
		}
	})
	t.Run("cache below minimum", func(t *testing.T) {
		a, tasks := validAllocation()
		a.Cores[0].Cache = 1
		if err := a.Validate(tasks); err == nil {
			t.Error("accepted")
		}
	})
	t.Run("core index out of range", func(t *testing.T) {
		a, tasks := validAllocation()
		a.Cores[0].Core = 4
		if err := a.Validate(tasks); err == nil {
			t.Error("accepted")
		}
	})
	t.Run("utilization above one", func(t *testing.T) {
		a, tasks := validAllocation()
		a.Cores[0].VCPUs[0].Budget = ConstTable(PlatformA, 11)
		if err := a.Validate(tasks); err == nil {
			t.Error("accepted")
		}
	})
	t.Run("task missing", func(t *testing.T) {
		a, tasks := validAllocation()
		tasks = append(tasks, SimpleTask("t2", PlatformA, 10, 1))
		if err := a.Validate(tasks); err == nil {
			t.Error("accepted")
		}
	})
	t.Run("task mapped twice", func(t *testing.T) {
		a, tasks := validAllocation()
		dup := &VCPU{ID: "v2", Period: 10, Budget: ConstTable(PlatformA, 1),
			Tasks: []*Task{tasks[0]}}
		a.Cores[0].VCPUs = append(a.Cores[0].VCPUs, dup)
		if err := a.Validate(tasks); err == nil {
			t.Error("accepted")
		}
	})
	t.Run("VCPU on two cores", func(t *testing.T) {
		a, tasks := validAllocation()
		v := a.Cores[0].VCPUs[0]
		a.Cores = append(a.Cores, &CoreAlloc{Core: 1, Cache: 5, BW: 5, VCPUs: []*VCPU{v}})
		if err := a.Validate(tasks); err == nil {
			t.Error("accepted")
		}
	})
	t.Run("duplicate core", func(t *testing.T) {
		a, tasks := validAllocation()
		a.Cores = append(a.Cores, &CoreAlloc{Core: 0, Cache: 5, BW: 5})
		if err := a.Validate(tasks); err == nil {
			t.Error("accepted")
		}
	})
	t.Run("task period below VCPU period", func(t *testing.T) {
		a, tasks := validAllocation()
		a.Cores[0].VCPUs[0].Period = 20
		a.Cores[0].VCPUs[0].Budget = ConstTable(PlatformA, 2)
		if err := a.Validate(tasks); err == nil {
			t.Error("accepted")
		}
	})
	t.Run("partition totals exceed platform", func(t *testing.T) {
		a, tasks := validAllocation()
		a.Cores[0].Cache = 20
		extraTask := SimpleTask("t2", PlatformA, 10, 1)
		tasks = append(tasks, extraTask)
		a.Cores = append(a.Cores, &CoreAlloc{Core: 1, Cache: 20, BW: 5,
			VCPUs: []*VCPU{{ID: "v2", Period: 10, Budget: ConstTable(PlatformA, 1),
				Tasks: []*Task{extraTask}}}})
		if err := a.Validate(tasks); err == nil {
			t.Error("accepted")
		}
	})
}

func TestAllocationAccessors(t *testing.T) {
	a, _ := validAllocation()
	if got := len(a.VCPUs()); got != 1 {
		t.Errorf("VCPUs() returned %d, want 1", got)
	}
	if a.UsedCache() != 10 || a.UsedBW() != 10 {
		t.Errorf("UsedCache/UsedBW = %d/%d, want 10/10", a.UsedCache(), a.UsedBW())
	}
}

func TestAllocationReport(t *testing.T) {
	a, _ := validAllocation()
	a.Solution = "Heuristic (flattening)"
	a.Cores[0].VCPUs[0].SyncedRelease = true
	rep := a.Report()
	for _, want := range []string{
		"Heuristic (flattening)",
		"core 0: cache 10, BW 10",
		"VCPU v1",
		"task t1",
		"flattened (release-synchronized)",
		"utilization 0.100 <= 1",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	unnamed, _ := validAllocation()
	if !strings.Contains(unnamed.Report(), "(unnamed solution)") {
		t.Error("unnamed allocation should be labeled as such")
	}
}

func TestResourceTableFillPropertyMonotone(t *testing.T) {
	// Any table filled with a function non-increasing in c and b passes
	// CheckMonotone.
	f := func(base uint8, slopeC, slopeB uint8) bool {
		tab := NewResourceTable(2, 8, 1, 6)
		bc, sc, sb := float64(base)+1, float64(slopeC%5), float64(slopeB%5)
		tab.Fill(func(c, b int) float64 {
			return bc + sc*float64(20-c) + sb*float64(20-b)
		})
		return tab.CheckMonotone() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestOffsetAddressesSameCell: Offset computed on one table reads, through
// AtOffset, exactly what At reads on every table of the same shape, and
// panics out of range as At does; SameShape tells shapes apart.
func TestOffsetAddressesSameCell(t *testing.T) {
	a := NewResourceTable(1, 4, 2, 5)
	b := NewResourceTable(1, 4, 2, 5)
	a.Fill(func(c, bw int) float64 { return float64(10*c + bw) })
	b.Fill(func(c, bw int) float64 { return 1 / float64(c+bw) })
	for c := 1; c <= 4; c++ {
		for bw := 2; bw <= 5; bw++ {
			off := a.Offset(c, bw)
			for _, tb := range []*ResourceTable{a, b} {
				if math.Float64bits(tb.AtOffset(off)) != math.Float64bits(tb.At(c, bw)) {
					t.Fatalf("AtOffset(Offset(%d, %d)) = %v, At %v", c, bw, tb.AtOffset(off), tb.At(c, bw))
				}
			}
		}
	}
	if !a.SameShape(b) || !a.SameShape(a.Clone()) {
		t.Error("tables of one range reported as different shapes")
	}
	for _, o := range []*ResourceTable{NewResourceTable(1, 4, 2, 6), NewResourceTable(0, 3, 2, 5), NewResourceTable(1, 4, 1, 5)} {
		if a.SameShape(o) {
			t.Errorf("SameShape(%v) = true", o)
		}
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "out of range") {
			t.Errorf("Offset(5, 2) panicked with %v, want At's out-of-range panic", r)
		}
	}()
	a.Offset(5, 2)
}
