package alloc

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"testing"

	"vc2m/internal/binpack"
	"vc2m/internal/csa"
	"vc2m/internal/metrics"
	"vc2m/internal/model"
	"vc2m/internal/provenance"
	"vc2m/internal/rngutil"
	"vc2m/internal/workload"
)

// utilAtRef is the core price before the offset was hoisted: the in-order
// sum of every VCPU's Bandwidth.
func utilAtRef(cs *coreState, cache, bw int) float64 {
	var u float64
	for _, v := range cs.vcpus {
		u += v.Bandwidth(cache, bw)
	}
	return u
}

// panicOf runs f and returns what it panicked with (nil if it returned).
func panicOf(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

// TestUtilAtMatchesBandwidthSum: at every (c, b), on random cores with
// +Inf budget entries, utilAt equals the in-order Bandwidth sum bit for
// bit; a budget table of another shape among them gives the same value
// inside its range and the same panic outside it; an empty core prices
// at +0.
func TestUtilAtMatchesBandwidthSum(t *testing.T) {
	rng := rngutil.New(25)
	var cells, mixed, panics int
	for trial := 0; trial < 200; trial++ {
		plat := model.PlatformA
		if trial%2 == 1 {
			plat = model.PlatformC
		}
		cores, _ := randomCores(rng, plat)
		if trial%4 == 0 {
			// A table covering only c, b >= 2: another shape, so utilAt
			// must take Bandwidth for it, with At's range check.
			odd := model.NewResourceTable(2, plat.C, 2, plat.B)
			odd.Fill(func(c, b int) float64 { return 1 + 1/float64(c*b) })
			v := &model.VCPU{ID: "odd", VM: "vm", Index: 99, Period: 7.5, Budget: odd}
			cs := cores[rng.Intn(len(cores))]
			cs.vcpus = append(cs.vcpus, v)
			if rng.Intn(2) == 0 { // first, so the offset comes from it
				copy(cs.vcpus[1:], cs.vcpus)
				cs.vcpus[0] = v
			}
			mixed++
		}
		for _, cs := range cores {
			for c := plat.Cmin; c <= plat.C; c++ {
				for b := plat.Bmin; b <= plat.B; b++ {
					var got, want float64
					gotP := panicOf(func() { got = cs.utilAt(c, b) })
					wantP := panicOf(func() { want = utilAtRef(cs, c, b) })
					if fmt.Sprint(gotP) != fmt.Sprint(wantP) {
						t.Fatalf("trial %d utilAt(%d, %d): panic %v, reference %v", trial, c, b, gotP, wantP)
					}
					if gotP != nil {
						panics++
						continue
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("trial %d utilAt(%d, %d) = %v, in-order sum %v", trial, c, b, got, want)
					}
					cells++
				}
			}
		}
	}
	if mixed == 0 || panics == 0 {
		t.Fatalf("weak coverage: %d mixed-shape cores, %d panics", mixed, panics)
	}
	if u := (&coreState{}).utilAt(1, 1); math.Float64bits(u) != 0 {
		t.Errorf("empty core prices at %v, want +0", u)
	}
	t.Logf("%d cells, %d out-of-range panics checked", cells, panics)
}

// TestSortDescMatchesSliceStable: sortDesc gives the order
// sort.SliceStable gives with the less function the allocators used before
// (exact key ties broken by tie, then by input position), on random keys
// with many ties, +Inf and both signed zeros.
func TestSortDescMatchesSliceStable(t *testing.T) {
	rng := rngutil.New(26)
	pool := []float64{0, math.Copysign(0, -1), 0.25, 0.5, 0.5, 1, 1.5, math.Inf(1), math.Inf(1), 3e-9}
	type item struct {
		key float64
		id  int // tie-break, itself often tied
		pos int
	}
	for trial := 0; trial < 2000; trial++ {
		items := make([]item, rng.Intn(12))
		for i := range items {
			k := pool[rng.Intn(len(pool))]
			if rng.Intn(3) == 0 {
				k = rng.Float64()
			}
			items[i] = item{key: k, id: rng.Intn(4), pos: i}
		}
		want := append([]item(nil), items...)
		sort.SliceStable(want, func(a, b int) bool {
			if ka, kb := want[a].key, want[b].key; ka != kb { //vc2m:floateq the reference less under test
				return ka > kb
			}
			return want[a].id < want[b].id
		})
		got := append([]item(nil), items...)
		sortDesc(got, func(it item) float64 { return it.key }, func(a, b item) int { return a.id - b.id })
		for i := range want {
			if got[i].pos != want[i].pos {
				t.Fatalf("trial %d: sortDesc order %v, sort.SliceStable %v", trial, got, want)
			}
		}
	}
}

// pickMigrationRef is pickMigration as it was before the one-pass pick:
// candidates stable-sorted by decreasing reference bandwidth, re-priced on
// every compare, and tried in turn until one has a destination.
func pickMigrationRef(cores []*coreState, src *coreState) (int, *coreState) {
	order := make([]int, len(src.vcpus))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return src.vcpus[order[a]].RefBandwidth() > src.vcpus[order[b]].RefBandwidth()
	})
	for _, vi := range order {
		v := src.vcpus[vi]
		var best *coreState
		bestUtil := math.Inf(1)
		for _, dst := range cores {
			if dst == src || !schedulable(dst.util()) {
				continue
			}
			after := dst.util() + v.Bandwidth(dst.cache, dst.bw)
			if schedulable(after) && after < bestUtil {
				best, bestUtil = dst, after
			}
		}
		if best != nil {
			return vi, best
		}
	}
	return -1, nil
}

// TestPickMigrationMatchesSortedReference: on random cores at random
// partitions, with +Inf budget entries and VCPUs duplicated so that
// reference bandwidths tie, pickMigration chooses the same VCPU and
// destination as the sort-and-try reference for every unschedulable
// source core, including sources with no schedulable destination.
func TestPickMigrationMatchesSortedReference(t *testing.T) {
	rng := rngutil.New(27)
	var moved, stuck, noDst, ties int
	var dsts []*coreState
	for trial := 0; trial < 1500; trial++ {
		plat := model.PlatformA
		if trial%2 == 1 {
			plat = model.PlatformC
		}
		cores, _ := randomCores(rng, plat)
		for _, cs := range cores {
			for i, n := 0, len(cs.vcpus); i < n; i++ {
				if rng.Intn(3) == 0 { // same budget and period: a tie
					dup := *cs.vcpus[i]
					dup.Index += 100
					cs.vcpus = append(cs.vcpus, &dup)
					ties++
				}
			}
			cs.cache = plat.Cmin + rng.Intn(plat.C-plat.Cmin+1)
			cs.bw = plat.Bmin + rng.Intn(plat.B-plat.Bmin+1)
			cs.touch()
		}
		for _, src := range cores {
			if schedulable(src.util()) {
				continue
			}
			var vi int
			var dst *coreState
			vi, dst, dsts = pickMigration(cores, src, dsts)
			wantVI, wantDst := pickMigrationRef(cores, src)
			if vi != wantVI || dst != wantDst {
				t.Fatalf("trial %d: picked VCPU %d onto %p, reference %d onto %p", trial, vi, dst, wantVI, wantDst)
			}
			switch {
			case vi >= 0:
				moved++
			case len(dsts) == 0:
				noDst++
			default:
				stuck++
			}
		}
	}
	if moved == 0 || stuck == 0 || noDst == 0 || ties == 0 {
		t.Fatalf("weak coverage: %d moved, %d stuck, %d without destination, %d ties", moved, stuck, noDst, ties)
	}
	t.Logf("%d moved, %d stuck with destinations, %d without", moved, stuck, noDst)
}

// refPackVCPUsToCores is the core packer before it took precomputed
// bandwidths: it prices every VCPU with Bandwidth and restores the
// within-core order with sort.SliceStable.
func refPackVCPUsToCores(vcpus []*model.VCPU, m, cache, bw int, prov *provenance.Recorder) [][]*model.VCPU {
	sizes := make([]float64, len(vcpus))
	for i, v := range vcpus {
		sizes[i] = v.Bandwidth(cache, bw)
	}
	res := binpack.PackDecreasing(sizes, m, 1)
	if prov.Enabled() {
		recordBinpack(prov, res, func(i int) string { return vcpus[i].ID }, sizes, m, cache, bw)
	}
	if !res.OK {
		return nil
	}
	cores := make([][]*model.VCPU, m)
	for i, v := range vcpus {
		cores[res.Assign[i]] = append(cores[res.Assign[i]], v)
	}
	for _, vs := range cores {
		sort.SliceStable(vs, func(a, b int) bool {
			ba, bb := vs[a].Bandwidth(cache, bw), vs[b].Bandwidth(cache, bw)
			if ba != bb { //vc2m:floateq the reference less under test
				return ba > bb
			}
			return vs[a].Index < vs[b].Index
		})
	}
	return cores
}

// refPackOverheadFreeVCPUs is the VM packer before it returned task
// groups: it sorts with sort.SliceStable, re-pricing both tasks on every
// compare, and builds every group's VCPU.
func refPackOverheadFreeVCPUs(vm *model.VM, cache, bw, firstIndex int) ([]*model.VCPU, *model.Task, error) {
	order := append([]*model.Task(nil), vm.Tasks...)
	sort.SliceStable(order, func(a, b int) bool {
		ua, ub := order[a].Util(cache, bw), order[b].Util(cache, bw)
		if ua != ub { //vc2m:floateq the reference less under test
			return ua > ub
		}
		return order[a].ID < order[b].ID
	})
	var bins [][]*model.Task
	var loads []float64
	for _, t := range order {
		u := t.Util(cache, bw)
		if u > 1+schedEps {
			return nil, t, nil
		}
		best := -1
		for i, load := range loads {
			if load+u > 1+schedEps {
				continue
			}
			if best == -1 || loads[i] > loads[best] {
				best = i
			}
		}
		if best == -1 {
			bins = append(bins, nil)
			loads = append(loads, 0)
			best = len(bins) - 1
		}
		bins[best] = append(bins[best], t)
		loads[best] += u
	}
	out := make([]*model.VCPU, len(bins))
	for i, group := range bins {
		v, err := csa.WellRegulatedVCPU(group, firstIndex+i)
		if err != nil {
			return nil, nil, err
		}
		out[i] = v
	}
	return out, nil, nil
}

// refEvenlyPartition is Evenly-partition as it was before it packed with
// scalar bandwidths: every core count m derives every VM's well-regulated
// VCPUs, budget tables and all, and keeps them only if m is accepted.
func refEvenlyPartition(sys *model.System, plat model.Platform, rec *metrics.Recorder, prov *provenance.Recorder) (*model.Allocation, error) {
	var cpuN, cacheN, bwN int
	for m := 1; m <= plat.M; m++ {
		rec.Inc(MetricMTried)
		cache := evenSplit(plat.C, m, plat.C)
		bw := evenSplit(plat.B, m, plat.B)
		if cache < plat.Cmin || bw < plat.Bmin {
			break
		}
		var vcpus []*model.VCPU
		feasible := true
		for _, vm := range sys.VMs {
			packed, offending, err := refPackOverheadFreeVCPUs(vm, cache, bw, len(vcpus))
			if err != nil {
				return nil, err
			}
			if packed == nil {
				feasible = false
				cause := evenSplitFailCause(offending, plat, cache, bw)
				if cause.cpu {
					cpuN++
				}
				if cause.cache {
					cacheN++
				}
				if cause.bw {
					bwN++
				}
				if prov.Enabled() {
					prov.Record(provenance.Decision{
						Stage: provenance.StageBaseline, Kind: provenance.KindAttempt,
						Subject: offending.ID, Target: fmt.Sprintf("m=%d", m),
						Cache: cache, BW: bw, Value: offending.Util(cache, bw),
						Reason:   fmt.Sprintf("task utilization %.4g > 1 under the even (%d,%d) split", offending.Util(cache, bw), cache, bw),
						Violated: cause.violated(),
					})
				}
				break
			}
			vcpus = append(vcpus, packed...)
		}
		if !feasible {
			continue
		}
		cores := refPackVCPUsToCores(vcpus, m, cache, bw, prov)
		if cores == nil {
			cpuN++
			continue
		}
		rec.Add(MetricVCPUsBuilt, int64(len(vcpus)))
		if prov.Enabled() {
			prov.Record(provenance.Decision{
				Stage: provenance.StageBaseline, Kind: provenance.KindAccept,
				Subject: "system", Target: fmt.Sprintf("m=%d", m),
				Cache: cache, BW: bw, Value: float64(m), Accepted: true,
				Reason: fmt.Sprintf("%d well-regulated VCPUs packed onto %d cores under an even partition split", len(vcpus), m),
			})
		}
		out := &model.Allocation{Platform: plat, Schedulable: true}
		for i, vs := range cores {
			out.Cores = append(out.Cores, &model.CoreAlloc{Core: i, Cache: cache, BW: bw, VCPUs: append([]*model.VCPU(nil), vs...)})
		}
		return out, nil
	}
	re := &RejectionError{
		Stage:    provenance.StageBaseline,
		Reason:   fmt.Sprintf("no m in 1..%d is feasible under even partition splits (cpu-bound %d, cache-starved %d, bw-starved %d attempts)", plat.M, cpuN, cacheN, bwN),
		Violated: rankViolated(cpuN, cacheN, bwN),
	}
	if prov.Enabled() {
		prov.Record(provenance.Decision{
			Stage: provenance.StageBaseline, Kind: provenance.KindReject,
			Subject: "system", Reason: re.Reason, Violated: re.Violated,
		})
	}
	return nil, re
}

// refBaseline is Baseline before packToCores: the same VCPUs, packed at
// every m by the reference core packer.
func refBaseline(sys *model.System, plat model.Platform, prov *provenance.Recorder) (*model.Allocation, error) {
	var vcpus []*model.VCPU
	for _, vm := range sys.VMs {
		packed, _ := packExistingVCPUs(vm, plat, len(vcpus), nil)
		if packed == nil {
			return nil, fmt.Errorf("VM %s has a task no VCPU can take", vm.ID)
		}
		vcpus = append(vcpus, packed...)
	}
	for m := 1; m <= plat.M; m++ {
		cache := evenSplit(plat.C, m, plat.C)
		bw := evenSplit(plat.B, m, plat.B)
		if cache < plat.Cmin || bw < plat.Bmin {
			break
		}
		cores := refPackVCPUsToCores(vcpus, m, cache, bw, prov)
		if cores == nil {
			continue
		}
		prov.Record(provenance.Decision{
			Stage: provenance.StageBaseline, Kind: provenance.KindAccept,
			Subject: "system", Target: fmt.Sprintf("m=%d", m),
			Cache: cache, BW: bw, Value: float64(m), Accepted: true,
			Reason: fmt.Sprintf("%d baseline VCPUs packed onto %d cores under an even partition split", len(vcpus), m),
		})
		out := &model.Allocation{Platform: plat, Schedulable: true}
		for i, vs := range cores {
			out.Cores = append(out.Cores, &model.CoreAlloc{Core: i, Cache: cache, BW: bw, VCPUs: append([]*model.VCPU(nil), vs...)})
		}
		return out, nil
	}
	return nil, fmt.Errorf("%d baseline VCPUs pack onto no m", len(vcpus))
}

// sameRun fails unless two allocator runs agree byte for byte: the
// allocation's JSON, the error text, every decision and every counter.
func sameRun(t *testing.T, what string, a, b *model.Allocation, errA, errB error, provA, provB *provenance.Recorder, recA, recB *metrics.Recorder) {
	t.Helper()
	if fmt.Sprint(errA) != fmt.Sprint(errB) {
		t.Fatalf("%s: error %v, reference %v", what, errA, errB)
	}
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: allocation %v, reference %v", what, a != nil, b != nil)
	}
	if a != nil {
		ja, err := model.EncodeAllocation(a)
		if err != nil {
			t.Fatal(err)
		}
		jb, err := model.EncodeAllocation(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ja, jb) {
			t.Fatalf("%s: allocation differs from the reference:\n%s\n%s", what, ja, jb)
		}
	}
	da, db := provA.Decisions(), provB.Decisions()
	if len(da) != len(db) {
		t.Fatalf("%s: %d decisions, reference %d", what, len(da), len(db))
	}
	for i := range da {
		if !sameDecision(da[i], db[i]) || fmt.Sprint(da[i].Violated) != fmt.Sprint(db[i].Violated) {
			t.Fatalf("%s: decision %d = %+v, reference %+v", what, i, da[i], db[i])
		}
	}
	if sa, sb := fmt.Sprint(recA.Snapshot().Counters), fmt.Sprint(recB.Snapshot().Counters); sa != sb {
		t.Fatalf("%s: counters %s, reference %s", what, sa, sb)
	}
}

// TestEvenSplitPackersMatchReference drives Evenly-partition and
// Baseline's core search over generated systems on three platforms,
// from light to rejected loads, against the reference paths that build
// every VCPU's tables and re-price every compare: same allocation bytes,
// VCPU IDs, decision stream, counters and errors.
func TestEvenSplitPackersMatchReference(t *testing.T) {
	var accepted, rejected int
	for _, plat := range []model.Platform{model.PlatformA, model.PlatformB, model.PlatformC} {
		for ui, util := range []float64{0.3, 0.8, 1.0, 1.4, 1.8, 2.6} {
			for seed := int64(0); seed < 6; seed++ {
				sys, err := workload.Generate(workload.Config{
					Platform: plat, TargetRefUtil: util, Dist: workload.Uniform,
				}, rngutil.New(seed*31+int64(ui)))
				if err != nil {
					t.Fatal(err)
				}
				what := plat.Name + " util " + strconv.FormatFloat(util, 'g', -1, 64) + " seed " + strconv.FormatInt(seed, 10)

				recA, recB := metrics.New(), metrics.New()
				provA, provB := provenance.New(), provenance.New()
				a, errA := evenlyPartitionAllocate(sys, plat, recA, provA)
				b, errB := refEvenlyPartition(sys, plat, recB, provB)
				sameRun(t, "evenly-partition "+what, a, b, errA, errB, provA, provB, recA, recB)
				if a != nil {
					accepted++
				} else {
					rejected++
				}

				provA, provB = provenance.New(), provenance.New()
				a, errA = baselineAllocate(sys, plat, nil, provA)
				b, errB = refBaseline(sys, plat, provB)
				if a == nil || b == nil {
					if (a == nil) != (b == nil) {
						t.Fatalf("baseline %s: accepted %v, reference %v (%v, %v)", what, a != nil, b != nil, errA, errB)
					}
					continue // rejections are the unchanged VM packer's
				}
				sameRun(t, "baseline "+what, a, b, errA, errB, provA, provB, metrics.New(), metrics.New())
			}
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("weak coverage: %d accepted, %d rejected", accepted, rejected)
	}
}

// TestBaselineReusesDemand pins what one reused csa.Demand saves: the
// best-fit trials of packExistingVCPUs allocate nothing once their buffers
// have grown, so a packing allocates a few times per task (items, bins
// and the output VCPUs) however many trials it runs. On this 28-task VM
// with 135 trials that is 115 allocations; a fresh Demand per trial (a
// checkpoint map and five slices) made it 1202.
func TestBaselineReusesDemand(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector changes allocation counts")
	}
	plat := model.PlatformA
	vm := &model.VM{ID: "big"}
	for _, v := range genSystem(t, 1.8, 4).VMs {
		vm.Tasks = append(vm.Tasks, v.Tasks...)
	}
	rec := metrics.New()
	packExistingVCPUs(vm, plat, 0, rec)
	trials := rec.Snapshot().Counters[csa.MetricMinBudgetCalls]
	allocs := testing.AllocsPerRun(20, func() { packExistingVCPUs(vm, plat, 0, nil) })
	if perTask := allocs / float64(len(vm.Tasks)); trials < 100 || perTask > 5 {
		t.Errorf("%v allocations (%.1f per task) for %d tasks and %d trials, want at most 5 per task over >= 100 trials",
			allocs, perTask, len(vm.Tasks), trials)
	}
}
