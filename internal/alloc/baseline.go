package alloc

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"vc2m/internal/binpack"
	"vc2m/internal/csa"
	"vc2m/internal/metrics"
	"vc2m/internal/model"
	"vc2m/internal/parsec"
	"vc2m/internal/provenance"
)

// baselineWCET returns a task's worst-case WCET as the baseline solution
// assumes it: the execution time with no cache allocated and worst-case
// memory bandwidth. When the task records its generating benchmark the
// exact e^max = e* x s^max is reconstructed; otherwise the worst
// allocatable configuration (Cmin, Bmin) is the closest representable
// value.
func baselineWCET(t *model.Task, plat model.Platform) float64 {
	if t.Benchmark != "" {
		if bm, err := parsec.ByName(t.Benchmark); err == nil {
			return t.RefWCET() * bm.MaxSlowdown(plat)
		}
	}
	return t.WCET.At(plat.Cmin, plat.Bmin)
}

// packExistingVCPUs packs one VM's tasks onto VCPUs using best-fit
// decreasing under the existing CSA with scalar worst-case WCETs: tasks
// are considered in decreasing worst-case utilization; each is added to
// the feasible VCPU whose resulting bandwidth is highest (tightest fit),
// where feasibility means the recomputed minimum periodic-resource budget
// still fits within the VCPU period. A new VCPU is opened when no
// existing one can take the task. It returns (nil, task) when some task is
// infeasible even on a dedicated VCPU, naming the offender so rejections
// can be attributed.
func packExistingVCPUs(vm *model.VM, plat model.Platform, firstIndex int, rec *metrics.Recorder) ([]*model.VCPU, *model.Task) {
	// item pairs a task with its baseline WCET, computed once per task.
	type item struct {
		t    *model.Task
		wcet float64
	}
	type bin struct {
		items  []item
		theta  float64 // current minimum budget
		period float64 // min task period
	}

	order := make([]item, len(vm.Tasks))
	for i, t := range vm.Tasks {
		order[i] = item{t: t, wcet: baselineWCET(t, plat)}
	}
	sort.SliceStable(order, func(a, b int) bool {
		ua := order[a].wcet / order[a].t.Period
		ub := order[b].wcet / order[b].t.Period
		if ua != ub { //vc2m:floateq exact tie-break keeps the sort a strict weak order
			return ua > ub
		}
		return order[a].t.ID < order[b].t.ID
	})

	// tryPack computes the minimum budget for a candidate task group. Every
	// trial shares one set of period, WCET and demand buffers; none of them
	// outlives the trial.
	var periods, wcets, dbf []float64
	tryPack := func(group []item) (theta, period float64, ok bool) {
		periods, wcets = periods[:0], wcets[:0]
		period = math.Inf(1)
		for _, it := range group {
			periods = append(periods, it.t.Period)
			wcets = append(wcets, it.wcet)
			if it.t.Period < period {
				period = it.t.Period
			}
		}
		demand, err := csa.NewDemand(periods)
		if err != nil {
			return 0, 0, false
		}
		cps := demand.Checkpoints()
		rec.Add(csa.MetricDBFEvals, int64(len(cps)))
		dbf = slices.Grow(dbf[:0], len(cps))[:len(cps)]
		theta, ok = csa.MinBudgetForDemand(period, cps, demand.DBFInto(dbf, wcets), rec)
		return theta, period, ok
	}

	var bins []*bin
	var cand []item
	for _, it := range order {
		bestBin := -1
		bestBW := -1.0
		var bestTheta, bestPeriod float64
		for i, bn := range bins {
			cand = append(append(cand[:0], bn.items...), it)
			theta, period, ok := tryPack(cand)
			if !ok {
				continue
			}
			if bw := theta / period; bw > bestBW {
				bestBin, bestBW, bestTheta, bestPeriod = i, bw, theta, period
			}
		}
		if bestBin >= 0 {
			bins[bestBin].items = append(bins[bestBin].items, it)
			bins[bestBin].theta, bins[bestBin].period = bestTheta, bestPeriod
			continue
		}
		cand = append(cand[:0], it)
		theta, period, ok := tryPack(cand)
		if !ok {
			return nil, it.t // task infeasible even alone
		}
		bins = append(bins, &bin{items: []item{it}, theta: theta, period: period})
	}

	out := make([]*model.VCPU, len(bins))
	for i, bn := range bins {
		tasks := make([]*model.Task, len(bn.items))
		for j, it := range bn.items {
			tasks[j] = it.t
		}
		out[i] = &model.VCPU{
			ID:     fmt.Sprintf("%s/base-%d", vm.ID, firstIndex+i),
			VM:     vm.ID,
			Index:  firstIndex + i,
			Period: bn.period,
			Budget: model.ConstTable(plat, bn.theta),
			Tasks:  tasks,
		}
	}
	return out, nil
}

// packVCPUsToCores places VCPUs onto at most m cores with best-fit
// decreasing on bandwidth under the (cache, bw) allocation every core will
// receive, delegating the packing itself to binpack.PackDecreasing (VCPUs
// arrive in index order, so binpack's original-index tie-break matches the
// VCPU-index tie-break used before the delegation). It returns the
// per-core VCPU lists, or nil if some VCPU fits on no core; per-VCPU
// placements and misfits are recorded on prov (nil-safe).
func packVCPUsToCores(vcpus []*model.VCPU, m, cache, bw int, prov *provenance.Recorder) [][]*model.VCPU {
	sizes := make([]float64, len(vcpus))
	for i, v := range vcpus {
		sizes[i] = v.Bandwidth(cache, bw)
	}
	res := binpack.PackDecreasing(sizes, m, 1)
	if prov.Enabled() {
		recordBinpack(prov, res, vcpus, sizes, m, cache, bw)
	}
	if !res.OK {
		return nil
	}
	cores := make([][]*model.VCPU, m)
	for i, v := range vcpus {
		cores[res.Assign[i]] = append(cores[res.Assign[i]], v)
	}
	// Restore the pre-delegation within-core order (decreasing bandwidth,
	// index tie-break): downstream output is ordered by it.
	for _, vs := range cores {
		sort.SliceStable(vs, func(a, b int) bool {
			ba, bb := vs[a].Bandwidth(cache, bw), vs[b].Bandwidth(cache, bw)
			if ba != bb { //vc2m:floateq exact tie-break keeps the sort a strict weak order
				return ba > bb
			}
			return vs[a].Index < vs[b].Index
		})
	}
	return cores
}

// recordBinpack emits one place decision per packed VCPU.
func recordBinpack(prov *provenance.Recorder, res binpack.Result, vcpus []*model.VCPU, sizes []float64, m, cache, bw int) {
	for i, v := range vcpus {
		d := provenance.Decision{
			Stage: provenance.StageBinpack, Kind: provenance.KindPlace,
			Subject: v.ID, Cache: cache, BW: bw, Value: sizes[i],
		}
		if res.Assign[i] >= 0 {
			d.Target = coreName(res.Assign[i])
			d.Accepted = true
			d.Reason = "best-fit decreasing on bandwidth (value = VCPU bandwidth)"
		} else {
			d.Reason = fmt.Sprintf("bandwidth %.4g fits on none of %d cores (best-fit decreasing)", sizes[i], m)
			d.Violated = []provenance.Resource{provenance.CPU}
		}
		prov.Record(d)
	}
}

// evenSplit returns the per-core partition count when dividing total
// partitions evenly among m cores, respecting the per-core maximum.
func evenSplit(total, m, max int) int {
	per := total / m
	if per > max {
		per = max
	}
	return per
}

// baselineAllocate implements "Baseline (existing CSA)": VCPU parameters
// from the existing compositional analysis with worst-case WCETs (no
// cache, worst-case BW), best-fit bin packing of tasks onto VCPUs and of
// VCPUs onto cores, and an even partition split for hardware validity.
// Search effort is accounted on rec and decisions on prov (both nil-safe).
// The baseline analysis is resource-oblivious — VCPU bandwidths assume
// worst-case WCETs and do not shrink with partitions — so its rejections
// are always CPU-bound.
func baselineAllocate(sys *model.System, plat model.Platform, rec *metrics.Recorder, prov *provenance.Recorder) (*model.Allocation, error) {
	var vcpus []*model.VCPU
	for _, vm := range sys.VMs {
		packed, offending := packExistingVCPUs(vm, plat, len(vcpus), rec)
		if packed == nil {
			re := &RejectionError{
				Stage: provenance.StageBaseline,
				Reason: fmt.Sprintf("task %s is infeasible even on a dedicated VCPU under worst-case WCETs (existing CSA)",
					offending.ID),
				Violated: []provenance.Resource{provenance.CPU},
			}
			if prov.Enabled() {
				prov.Record(provenance.Decision{
					Stage: provenance.StageBaseline, Kind: provenance.KindReject,
					Subject: offending.ID, Reason: re.Reason, Violated: re.Violated,
				})
			}
			return nil, re
		}
		vcpus = append(vcpus, packed...)
	}
	rec.Add(MetricVCPUsBuilt, int64(len(vcpus)))
	for m := 1; m <= plat.M; m++ {
		rec.Inc(MetricMTried)
		cache := evenSplit(plat.C, m, plat.C)
		bw := evenSplit(plat.B, m, plat.B)
		if cache < plat.Cmin || bw < plat.Bmin {
			break
		}
		cores := packVCPUsToCores(vcpus, m, cache, bw, prov)
		if cores == nil {
			continue
		}
		if prov.Enabled() {
			prov.Record(provenance.Decision{
				Stage: provenance.StageBaseline, Kind: provenance.KindAccept,
				Subject: "system", Target: fmt.Sprintf("m=%d", m),
				Cache: cache, BW: bw, Value: float64(m), Accepted: true,
				Reason: fmt.Sprintf("%d baseline VCPUs packed onto %d cores under an even partition split", len(vcpus), m),
			})
		}
		return coresToAllocation(cores, plat, cache, bw), nil
	}
	re := &RejectionError{
		Stage: provenance.StageBaseline,
		Reason: fmt.Sprintf("%d baseline VCPUs (worst-case WCETs) pack onto no m in 1..%d cores",
			len(vcpus), plat.M),
		Violated: []provenance.Resource{provenance.CPU},
	}
	if prov.Enabled() {
		prov.Record(provenance.Decision{
			Stage: provenance.StageBaseline, Kind: provenance.KindReject,
			Subject: "system", Reason: re.Reason, Violated: re.Violated,
		})
	}
	return nil, re
}

// evenlyPartitionAllocate implements "Evenly-partition (overhead-free
// CSA)": the overhead-free analysis on well-regulated VCPUs, but with
// cache and BW divided evenly among cores and plain best-fit bin packing
// of tasks onto VCPUs and VCPUs onto cores (no slowdown clustering, no
// incremental resource allocation, no load balancing). Search effort is
// accounted on rec and decisions on prov (both nil-safe); the
// overhead-free analysis performs no dbf/sbf evaluations, so only
// structural counters are recorded. Failed core counts are classified per
// resource: a task too heavy for one VCPU under the even split may be
// curable by partitions the split withholds (cache/BW-starved) or heavy
// under even the full allocation (CPU-bound).
func evenlyPartitionAllocate(sys *model.System, plat model.Platform, rec *metrics.Recorder, prov *provenance.Recorder) (*model.Allocation, error) {
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
			packed, offending, err := packOverheadFreeVCPUs(vm, plat, cache, bw, len(vcpus))
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
		cores := packVCPUsToCores(vcpus, m, cache, bw, prov)
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
		return coresToAllocation(cores, plat, cache, bw), nil
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

// evenSplitFailCause classifies a task that exceeds one full VCPU under
// the even (cache, bw) split: a resource the split withholds is implicated
// when restoring it (up to the platform cap) would bring the task back
// under 1; when even the full allocation leaves it above 1, it is
// CPU-bound.
func evenSplitFailCause(t *model.Task, plat model.Platform, cache, bw int) failCause {
	var f failCause
	if cache < plat.C && t.Util(plat.C, bw) <= 1+schedEps {
		f.cache = true
	}
	if bw < plat.B && t.Util(cache, plat.B) <= 1+schedEps {
		f.bw = true
	}
	if !f.cache && !f.bw {
		f.cpu = true
	}
	return f
}

// packOverheadFreeVCPUs packs one VM's tasks onto well-regulated VCPUs
// with best-fit decreasing on the tasks' utilization under the (cache, bw)
// allocation, opening a new VCPU whenever a task fits nowhere (a VCPU is
// feasible while its taskset utilization is at most 1, by Theorem 2). It
// returns (nil, task, nil) when some task alone exceeds a full VCPU,
// naming the offender, and an error for non-harmonic tasksets.
func packOverheadFreeVCPUs(vm *model.VM, plat model.Platform, cache, bw, firstIndex int) ([]*model.VCPU, *model.Task, error) {
	order := append([]*model.Task(nil), vm.Tasks...)
	sort.SliceStable(order, func(a, b int) bool {
		ua, ub := order[a].Util(cache, bw), order[b].Util(cache, bw)
		if ua != ub { //vc2m:floateq exact tie-break keeps the sort a strict weak order
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

// coresToAllocation freezes per-core VCPU lists with a uniform partition
// split into a model.Allocation.
func coresToAllocation(cores [][]*model.VCPU, plat model.Platform, cache, bw int) *model.Allocation {
	out := &model.Allocation{Platform: plat, Schedulable: true}
	for i, vs := range cores {
		out.Cores = append(out.Cores, &model.CoreAlloc{
			Core: i, Cache: cache, BW: bw,
			VCPUs: append([]*model.VCPU(nil), vs...),
		})
	}
	return out
}
