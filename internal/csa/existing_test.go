package csa

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"

	"vc2m/internal/metrics"
	"vc2m/internal/model"
	"vc2m/internal/obs"
	"vc2m/internal/parsec"
	"vc2m/internal/provenance"
	"vc2m/internal/rngutil"
	"vc2m/internal/workload"
)

func TestExistingVCPUPaperExample(t *testing.T) {
	// The motivating example from the introduction uses a VCPU period
	// equal to the task period: a single task (10, 1) then needs budget
	// 5.5 — bandwidth 0.55, 5.5x the task utilization of 0.1. That case is
	// covered by TestMinBudgetConvenience; ExistingVCPU itself uses the
	// half-minimum-period rule (Pi = 5), for which the minimum budget is
	// 1.0 — bandwidth 0.2, still 2x the utilization (the abstraction
	// overhead the paper removes).
	p := model.PlatformA
	task := model.SimpleTask("t1", p, 10, 1)
	task.VM = "vm1"
	v, feasible, err := ExistingVCPU([]*model.Task{task}, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if !feasible {
		t.Fatal("feasible taskset reported infeasible")
	}
	if math.Float64bits(v.Period) != math.Float64bits(5) {
		t.Errorf("VCPU period = %v, want half the minimum task period (5)", v.Period)
	}
	if math.Abs(v.Budget.Reference()-1.0) > 1e-3 {
		t.Errorf("reference budget = %v, want 1.0", v.Budget.Reference())
	}
	if math.Abs(v.RefBandwidth()-0.2) > 1e-3 {
		t.Errorf("bandwidth = %v, want 0.2 (2x the utilization)", v.RefBandwidth())
	}
}

func TestExistingVCPUAlwaysAtLeastUtilization(t *testing.T) {
	// The abstraction overhead is non-negative: the existing CSA's budget
	// is at least the overhead-free budget at every allocation.
	p := model.PlatformC
	mk := func(id string, period, base float64) *model.Task {
		return &model.Task{ID: id, VM: "vm1", Period: period,
			WCET: model.FuncTable(p, func(c, b int) float64 {
				return base * (1 + 0.15*float64(p.C-c) + 0.08*float64(p.B-b))
			})}
	}
	tasks := []*model.Task{mk("t1", 100, 4), mk("t2", 200, 10)}
	ex, feasible, err := ExistingVCPU(tasks, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if !feasible {
		t.Fatal("reported infeasible")
	}
	wr, err := WellRegulatedVCPU(tasks, 0)
	if err != nil {
		t.Fatal(err)
	}
	for c := p.Cmin; c <= p.C; c++ {
		for b := p.Bmin; b <= p.B; b++ {
			exBW := ex.Budget.At(c, b) / ex.Period
			wrBW := wr.Budget.At(c, b) / wr.Period
			if exBW < wrBW-1e-6 {
				t.Fatalf("existing bandwidth %v below overhead-free %v at (%d,%d)", exBW, wrBW, c, b)
			}
		}
	}
}

func TestExistingVCPUInfeasibleEntries(t *testing.T) {
	// A task whose WCET explodes at small allocations makes those entries
	// infeasible while the reference stays feasible. Infeasible entries
	// carry a finite pseudo-budget above the period so that the
	// hypervisor-level greedy still sees a gradient.
	p := model.PlatformC
	task := &model.Task{ID: "t1", VM: "vm1", Period: 10,
		WCET: model.FuncTable(p, func(c, b int) float64 {
			if c == p.Cmin && b == p.Bmin {
				return 20 // exceeds the period: no budget can help
			}
			return 1
		})}
	// This table is not monotone, but ExistingVCPU does not require it.
	v, feasible, err := ExistingVCPU([]*model.Task{task}, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if !feasible {
		t.Fatal("reference allocation should be feasible")
	}
	got := v.Budget.At(p.Cmin, p.Bmin)
	if math.IsInf(got, 1) || got <= v.Period {
		t.Errorf("infeasible entry budget = %v, want finite pseudo-budget > period %v", got, v.Period)
	}
	// dbf(10)/10 = 20/10 = 2, so the pseudo-budget is Pi * 2 = 10 (Pi = 5).
	if math.Abs(got-10) > 1e-6 {
		t.Errorf("pseudo-budget = %v, want 10 (Pi * max dbf(t)/t)", got)
	}
}

func TestExistingVCPUPseudoBudgetGradient(t *testing.T) {
	// Across a range of infeasible allocations, the pseudo-budget must
	// decrease as resources grow — the property Phase 2 relies on.
	p := model.PlatformC
	task := &model.Task{ID: "t1", VM: "vm1", Period: 10,
		WCET: model.FuncTable(p, func(c, b int) float64 {
			return 40 - float64(c+b) // infeasible everywhere (> period)
		})}
	v, feasible, err := ExistingVCPU([]*model.Task{task}, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if feasible {
		t.Fatal("should be infeasible everywhere")
	}
	if v.Budget.At(3, 3) <= v.Budget.At(10, 10) {
		t.Errorf("pseudo-budget must shrink as resources grow: At(3,3)=%v, At(10,10)=%v",
			v.Budget.At(3, 3), v.Budget.At(10, 10))
	}
}

func TestExistingVCPUFullyInfeasible(t *testing.T) {
	p := model.PlatformC
	task := model.SimpleTask("t1", p, 10, 11) // WCET above period
	task.VM = "vm1"
	_, feasible, err := ExistingVCPU([]*model.Task{task}, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if feasible {
		t.Error("utilization > 1 reported feasible")
	}
}

func TestExistingVCPUEmpty(t *testing.T) {
	if _, _, err := ExistingVCPU(nil, 0, model.PlatformA); err == nil {
		t.Error("empty taskset accepted")
	}
}

func TestMinBudgetConvenience(t *testing.T) {
	p := model.PlatformA
	task := model.SimpleTask("t1", p, 10, 1)
	theta, ok, err := MinBudget([]*model.Task{task}, 10, p.C, p.B)
	if err != nil || !ok {
		t.Fatalf("MinBudget failed: %v ok=%v", err, ok)
	}
	if math.Abs(theta-5.5) > 1e-3 {
		t.Errorf("theta = %v, want 5.5", theta)
	}
	if _, _, err := MinBudget(nil, 10, 2, 1); err == nil {
		t.Error("empty taskset accepted")
	}
}

func TestMinBudgetSmallerPeriodHelps(t *testing.T) {
	// A smaller resource period reduces the blackout and thus the required
	// bandwidth for the same taskset.
	p := model.PlatformA
	task := model.SimpleTask("t1", p, 10, 1)
	t10, ok1, _ := MinBudget([]*model.Task{task}, 10, p.C, p.B)
	t5, ok2, _ := MinBudget([]*model.Task{task}, 5, p.C, p.B)
	if !ok1 || !ok2 {
		t.Fatal("unexpected infeasible")
	}
	bw10, bw5 := t10/10, t5/5
	if bw5 >= bw10 {
		t.Errorf("bandwidth with period 5 (%v) should be below period 10 (%v)", bw5, bw10)
	}
}

// existingRef is ExistingVCPUObs before it reused cells: every (c,b) cell
// reads its WCETs with At, evaluates its demand and runs its own
// minimum-budget search from the previous cell's decisive index. It is
// the oracle for the reuse rule.
func existingRef(tasks []*model.Task, index int, plat model.Platform, rec *metrics.Recorder, prov *provenance.Recorder) (*model.VCPU, bool, error) {
	if len(tasks) == 0 {
		return nil, false, errors.New("csa: ExistingVCPU with no tasks")
	}
	periods := TaskPeriods(tasks)
	demand, err := NewDemand(periods)
	if err != nil {
		return nil, false, err
	}
	pi := periods[0]
	for _, p := range periods[1:] {
		if p < pi {
			pi = p
		}
	}
	pi /= 2

	budget := model.NewResourceTableFor(plat)
	cps := demand.Checkpoints()
	var dbfEvals, sbfEvals, searches, iters int64
	wcets := make([]float64, len(tasks))
	dem := make([]float64, len(cps))
	feasibleAllocs, totalAllocs := 0, 0
	decisive := 0
	for c := plat.Cmin; c <= plat.C; c++ {
		for b := plat.Bmin; b <= plat.B; b++ {
			demand.DBFInto(dem, TaskWCETsInto(wcets, tasks, c, b))
			dbfEvals += int64(len(cps))
			theta, ok, next, se, it := minBudgetForDemand(pi, cps, dem, decisive)
			decisive = next
			searches++
			sbfEvals += se
			iters += it
			totalAllocs++
			if !ok {
				budget.Set(c, b, pseudoBudget(pi, cps, dem))
				continue
			}
			feasibleAllocs++
			budget.Set(c, b, theta)
		}
	}
	if rec != nil {
		rec.Inc(MetricExistingVCPUs)
		rec.Add(MetricDBFEvals, dbfEvals)
		rec.Add(MetricSBFEvals, sbfEvals)
		rec.Add(MetricMinBudgetCalls, searches)
		rec.Add(MetricMinBudgetIters, iters)
	}
	v := &model.VCPU{
		ID:     fmt.Sprintf("%s/ex-%d", tasks[0].VM, index),
		VM:     tasks[0].VM,
		Index:  index,
		Period: pi,
		Budget: budget,
		Tasks:  append([]*model.Task(nil), tasks...),
	}
	feasible := budget.Reference() <= pi
	if prov.Enabled() {
		theta := budget.Reference()
		t, slack := decisiveCheckpoint(pi, theta, cps, dem, feasible)
		why := fmt.Sprintf("least supply slack %.4g at checkpoint t=%.4g", slack, t)
		if !feasible {
			why = fmt.Sprintf("demand %.4g at checkpoint t=%.4g exceeds even a dedicated core", slack, t)
		}
		prov.Record(provenance.Decision{
			Stage: provenance.StageCSA, Kind: provenance.KindInterface,
			Subject: v.ID, Cache: plat.C, BW: plat.B,
			Value: theta, Accepted: feasible,
			Reason: fmt.Sprintf("existing CSA (Shin & Lee): period %.4g (half min task period), budget %.4g at full allocation; %d/%d (c,b) candidates feasible; %s",
				pi, theta, feasibleAllocs, totalAllocs, why),
		})
		prov.Record(provenance.Decision{
			Stage: provenance.StageCSA, Kind: provenance.KindInterface,
			Subject: v.ID, Cache: plat.Cmin, BW: plat.Bmin,
			Value: budget.At(plat.Cmin, plat.Bmin), Accepted: budget.At(plat.Cmin, plat.Bmin) <= pi,
			Reason: fmt.Sprintf("budget %.4g at the minimum (Cmin,Bmin) allocation — the other end of the interface's resource gradient",
				budget.At(plat.Cmin, plat.Bmin)),
		})
	}
	return v, feasible, nil
}

// existingShape is what one derivation looked like, read from its
// csa.derive span attributes.
type existingShape struct{ candidates, feasible, reused int64 }

// diffExisting derives the taskset's interface with ExistingVCPUObs and
// with existingRef, and reports any difference in the error, the
// feasibility verdict, the period or any budget cell (bit for bit), the
// decision stream or the counter snapshot.
func diffExisting(tasks []*model.Task, plat model.Platform) (existingShape, error) {
	var shape existingShape
	rec, prov, tr := metrics.New(), provenance.New(), obs.NewTrace()
	sp := tr.StartSpan(obs.StageCSADerive)
	v, ok, err := ExistingVCPUObs(tasks, 3, plat, rec, prov, sp)
	sp.End()
	refRec, refProv := metrics.New(), provenance.New()
	rv, rok, rerr := existingRef(tasks, 3, plat, refRec, refProv)
	if (err == nil) != (rerr == nil) {
		return shape, fmt.Errorf("error %v, reference %v", err, rerr)
	}
	if err != nil {
		return shape, nil
	}
	if ok != rok {
		return shape, fmt.Errorf("feasible %v, reference %v", ok, rok)
	}
	if math.Float64bits(v.Period) != math.Float64bits(rv.Period) {
		return shape, fmt.Errorf("period %v, reference %v", v.Period, rv.Period)
	}
	for c := plat.Cmin; c <= plat.C; c++ {
		for b := plat.Bmin; b <= plat.B; b++ {
			if got, want := v.Budget.At(c, b), rv.Budget.At(c, b); math.Float64bits(got) != math.Float64bits(want) {
				return shape, fmt.Errorf("budget(%d,%d) = %v, reference %v", c, b, got, want)
			}
		}
	}
	if got, want := prov.Decisions(), refProv.Decisions(); !reflect.DeepEqual(got, want) {
		return shape, fmt.Errorf("decisions differ:\n got %+v\nwant %+v", got, want)
	}
	if got, want := rec.Snapshot(), refRec.Snapshot(); !reflect.DeepEqual(got, want) {
		return shape, fmt.Errorf("counters differ:\n got %+v\nwant %+v", got, want)
	}
	for _, a := range tr.Snapshot()[0].Attrs {
		n, _ := strconv.ParseInt(a.Value, 10, 64)
		switch a.Key {
		case "candidates":
			shape.candidates = n
		case "feasible":
			shape.feasible = n
		case "reused":
			shape.reused = n
		}
	}
	return shape, nil
}

// Task-table shapes for the reference comparison.
const (
	shapeFlatRuns = iota // saturating in c and b: long runs of equal cells
	shapeDistinct        // every cell of every table distinct
	shapePARSEC          // the workload generator's analytic profiles
	shapeOffGrid         // flat runs on a table wider than the platform
	numShapes
)

// refTasks builds n tasks on plat from rng: harmonic periods base*2^k or
// non-harmonic ones from a small set with a bounded hyperperiod, and WCET
// tables of the given shape scaled to utilizations that sometimes
// overload a core, so that some cells are infeasible.
func refTasks(rng *rngutil.RNG, plat model.Platform, n int, shape int, harmonic bool) []*model.Task {
	nonHarmonic := []float64{100, 150, 200, 250, 300, 400, 600}
	base := rng.Uniform(100, 137.5)
	tasks := make([]*model.Task, n)
	for i := range tasks {
		period := base * float64(int(1)<<uint(rng.Intn(4)))
		if !harmonic {
			period = nonHarmonic[rng.Intn(len(nonHarmonic))]
		}
		eRef := rng.Uniform(0.02, 0.6) * period / float64(n)
		var tab *model.ResourceTable
		switch shape {
		case shapeFlatRuns, shapeOffGrid:
			w := float64(plat.Cmin + rng.Intn(plat.C-plat.Cmin+3))
			k := 1 + rng.Float64()*float64(plat.B)
			a := rng.Uniform(0.05, 0.5)
			f := func(c, b int) float64 {
				return eRef * (1 + a*math.Max(0, w-float64(c))) * math.Max(1, k/float64(b))
			}
			tab = model.FuncTable(plat, f)
			if shape == shapeOffGrid {
				tab = model.NewResourceTable(plat.Cmin-1, plat.C+2, plat.Bmin, plat.B+1)
				tab.Fill(f)
			}
		case shapeDistinct:
			nb := plat.B - plat.Bmin + 1
			step := rng.Uniform(1e-4, 0.02)
			tab = model.FuncTable(plat, func(c, b int) float64 {
				return eRef * (1 + step*float64((plat.C-c)*nb+plat.B-b))
			})
		case shapePARSEC:
			tab = parsec.All[rng.Intn(len(parsec.All))].Profile(plat).Scale(eRef)
		}
		tasks[i] = &model.Task{ID: fmt.Sprintf("t%d", i), VM: "vm", Period: period, WCET: tab}
	}
	return tasks
}

// TestExistingVCPUMatchesReference is the differential oracle for the
// cell reuse in ExistingVCPUObs: on Platforms A, B and C, over generated
// tasksets, their one-task VCPUs, hand-built flat runs, tables with no
// repeated cell, off-platform table shapes, infeasible cells, and
// harmonic and non-harmonic periods, the interface, decision stream and
// counters equal the reference's bit for bit.
func TestExistingVCPUMatchesReference(t *testing.T) {
	var total existingShape
	noReuse, infeasible := 0, 0
	check := func(name string, tasks []*model.Task, plat model.Platform) {
		t.Helper()
		shape, err := diffExisting(tasks, plat)
		if err != nil {
			t.Fatalf("%s on platform %s: %v", name, plat.Name, err)
		}
		total.candidates += shape.candidates
		total.reused += shape.reused
		if shape.reused == 0 {
			noReuse++
		}
		if shape.feasible < shape.candidates {
			infeasible++
		}
	}
	for _, plat := range []model.Platform{model.PlatformA, model.PlatformB, model.PlatformC} {
		for seed := int64(1); seed <= 6; seed++ {
			sys, err := workload.Generate(workload.Config{
				Platform: plat, TargetRefUtil: 0.4 * float64(seed), Dist: workload.Uniform,
			}, rngutil.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			for _, vm := range sys.VMs {
				check(fmt.Sprintf("generated seed %d %s", seed, vm.ID), vm.Tasks, plat)
				for _, task := range vm.Tasks {
					check(fmt.Sprintf("generated seed %d task %s", seed, task.ID), []*model.Task{task}, plat)
				}
			}
		}
		rng := rngutil.New(20190602)
		for shape := 0; shape < numShapes; shape++ {
			for _, harmonic := range []bool{true, false} {
				for i := 0; i < 12; i++ {
					tasks := refTasks(rng, plat, 1+rng.Intn(6), shape, harmonic)
					check(fmt.Sprintf("shape %d harmonic %v #%d", shape, harmonic, i), tasks, plat)
				}
			}
		}
	}
	t.Logf("%d of %d cells reused; %d derivations reused none, %d had an infeasible cell",
		total.reused, total.candidates, noReuse, infeasible)
	// The inputs must exercise both sides of the reuse rule and the
	// pseudo-budget path, or the comparison proves little.
	if total.reused == 0 || total.reused == total.candidates {
		t.Errorf("reused %d of %d cells: want some cells reused and some solved", total.reused, total.candidates)
	}
	if noReuse == 0 {
		t.Error("no derivation solved every cell")
	}
	if infeasible == 0 {
		t.Error("no derivation had an infeasible cell")
	}
}

// FuzzExistingVCPUMatchesReference widens TestExistingVCPUMatchesReference
// to arbitrary seeds, platforms, task counts and table shapes.
func FuzzExistingVCPUMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(1), uint8(shapeFlatRuns), true)
	f.Add(int64(2), uint8(1), uint8(5), uint8(shapeDistinct), true)
	f.Add(int64(3), uint8(0), uint8(3), uint8(shapePARSEC), false)
	f.Add(int64(4), uint8(0), uint8(8), uint8(shapeOffGrid), false)
	f.Add(int64(5), uint8(2), uint8(2), uint8(shapeFlatRuns), false)
	f.Add(int64(6), uint8(0), uint8(6), uint8(shapePARSEC), true)
	f.Fuzz(func(t *testing.T, seed int64, platIdx, n, shape uint8, harmonic bool) {
		plat := []model.Platform{model.PlatformA, model.PlatformB, model.PlatformC}[int(platIdx)%3]
		tasks := refTasks(rngutil.New(seed), plat, 1+int(n)%8, int(shape)%numShapes, harmonic)
		if _, err := diffExisting(tasks, plat); err != nil {
			t.Fatal(err)
		}
	})
}

// TestInterfaceReasonsMatchSprintf is the differential oracle for the
// fmt-free existing-CSA interface reasons: over edge values, random bit
// patterns and random values at the scale of periods and budgets, they
// print exactly what their fmt.Sprintf forms printed.
func TestInterfaceReasonsMatchSprintf(t *testing.T) {
	edges := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1e-4, 1e-5, 12345, 123456, 9.9995, 99995,
		math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), math.MaxFloat64, -math.MaxFloat64,
	}
	rng := rngutil.New(30)
	value := func(i int) float64 {
		switch {
		case i < len(edges):
			return edges[i]
		case i%2 == 0:
			return math.Float64frombits(uint64(rng.Int63()) | uint64(rng.Int63())<<63)
		default:
			return rng.Float64() * math.Pow(10, float64(rng.Intn(12)-6))
		}
	}
	for i := 0; i < 40000; i++ {
		pi, theta, tt, slack := value(i), value(i/2), value(rng.Intn(i+1)), value(i)
		feasibleAllocs, totalAllocs := rng.Intn(400), rng.Intn(400)
		for _, feasible := range []bool{true, false} {
			why := fmt.Sprintf("least supply slack %.4g at checkpoint t=%.4g", slack, tt)
			if !feasible {
				why = fmt.Sprintf("demand %.4g at checkpoint t=%.4g exceeds even a dedicated core", slack, tt)
			}
			want := fmt.Sprintf("existing CSA (Shin & Lee): period %.4g (half min task period), budget %.4g at full allocation; %d/%d (c,b) candidates feasible; %s",
				pi, theta, feasibleAllocs, totalAllocs, why)
			if got := interfaceReason(pi, theta, feasibleAllocs, totalAllocs, tt, slack, feasible); got != want {
				t.Fatalf("interfaceReason(%v, %v, %d, %d, %v, %v, %v) = %q, want %q",
					pi, theta, feasibleAllocs, totalAllocs, tt, slack, feasible, got, want)
			}
		}
		want := fmt.Sprintf("budget %.4g at the minimum (Cmin,Bmin) allocation — the other end of the interface's resource gradient", theta)
		if got := minAllocationReason(theta); got != want {
			t.Fatalf("minAllocationReason(%v) = %q, want %q", theta, got, want)
		}
	}
}
