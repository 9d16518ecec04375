package alloc

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

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
	sortDesc(order, func(it item) float64 { return it.wcet / it.t.Period },
		func(a, b item) int { return strings.Compare(a.t.ID, b.t.ID) })

	// tryPack computes the minimum budget for a candidate task group. Every
	// trial shares one set of period, WCET and demand buffers and one
	// Demand, rebuilt in place; none of them outlives the trial.
	var periods, wcets, dbf []float64
	var demand csa.Demand
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
		if err := demand.Reset(periods); err != nil {
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

// packToCores places VCPUs onto at most m cores with best-fit decreasing
// on bandwidth under the (cache, bw) allocation every core will receive:
// sizes[i] is the bandwidth of VCPU i, whose Index is i in both callers,
// so binpack.PackDecreasing's original-index tie-break is the VCPU-index
// tie-break. It returns each core's VCPU indices in decreasing bandwidth,
// index tie-break (downstream output is ordered by it), or nil if some
// VCPU fits on no core; per-VCPU placements and misfits are recorded on
// prov (nil-safe) under the names id gives.
func packToCores(sizes []float64, id func(i int) string, m, cache, bw int, prov *provenance.Recorder) [][]int {
	res := binpack.PackDecreasing(sizes, m, 1)
	if prov.Enabled() {
		recordBinpack(prov, res, id, sizes, m, cache, bw)
	}
	if !res.OK {
		return nil
	}
	cores := make([][]int, m)
	for i, c := range res.Assign {
		cores[c] = append(cores[c], i)
	}
	for _, is := range cores {
		sortDesc(is, func(i int) float64 { return sizes[i] }, cmp.Compare[int])
	}
	return cores
}

// recordBinpack emits one place decision per packed VCPU.
func recordBinpack(prov *provenance.Recorder, res binpack.Result, id func(i int) string, sizes []float64, m, cache, bw int) {
	for i, size := range sizes {
		d := provenance.Decision{
			Stage: provenance.StageBinpack, Kind: provenance.KindPlace,
			Subject: id(i), Cache: cache, BW: bw, Value: size,
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
	sizes := make([]float64, len(vcpus))
	vcpuID := func(i int) string { return vcpus[i].ID }
	for m := 1; m <= plat.M; m++ {
		rec.Inc(MetricMTried)
		cache := evenSplit(plat.C, m, plat.C)
		bw := evenSplit(plat.B, m, plat.B)
		if cache < plat.Cmin || bw < plat.Bmin {
			break
		}
		for i, v := range vcpus {
			sizes[i] = v.Bandwidth(cache, bw)
		}
		cores := packToCores(sizes, vcpuID, m, cache, bw, prov)
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
		return coresToAllocation(cores, vcpus, plat, cache, bw), nil
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
// under even the full allocation (CPU-bound). Each core count is packed
// with the VCPUs' bandwidths at its even split alone; the VCPUs' budget
// tables are built only for the core count that is accepted.
func evenlyPartitionAllocate(sys *model.System, plat model.Platform, rec *metrics.Recorder, prov *provenance.Recorder) (*model.Allocation, error) {
	var cpuN, cacheN, bwN int
	var groups [][]*model.Task // VCPU i's tasks at the current m
	var sizes []float64        // VCPU i's bandwidth at the current split
	vcpuID := func(i int) string { return csa.WellRegulatedID(groups[i][0].VM, i) }
	for m := 1; m <= plat.M; m++ {
		rec.Inc(MetricMTried)
		cache := evenSplit(plat.C, m, plat.C)
		bw := evenSplit(plat.B, m, plat.B)
		if cache < plat.Cmin || bw < plat.Bmin {
			break
		}
		groups, sizes = groups[:0], sizes[:0]
		feasible := true
		for _, vm := range sys.VMs {
			bins, offending := packOverheadFreeTasks(vm, cache, bw)
			if bins == nil {
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
			for _, group := range bins {
				size, err := csa.WellRegulatedBandwidth(group, cache, bw)
				if err != nil {
					return nil, err
				}
				groups = append(groups, group)
				sizes = append(sizes, size)
			}
		}
		if !feasible {
			continue
		}
		cores := packToCores(sizes, vcpuID, m, cache, bw, prov)
		if cores == nil {
			cpuN++
			continue
		}
		vcpus := make([]*model.VCPU, len(groups))
		for i, group := range groups {
			v, err := csa.WellRegulatedVCPU(group, i)
			if err != nil {
				return nil, err
			}
			vcpus[i] = v
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
		return coresToAllocation(cores, vcpus, plat, cache, bw), nil
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

// packOverheadFreeTasks packs one VM's tasks into the task groups of
// well-regulated VCPUs with best-fit decreasing on the tasks' utilization
// under the (cache, bw) allocation, opening a new group whenever a task
// fits nowhere (a VCPU is feasible while its taskset utilization is at
// most 1, by Theorem 2). It returns (nil, task) when some task alone
// exceeds a full VCPU, naming the offender.
func packOverheadFreeTasks(vm *model.VM, cache, bw int) ([][]*model.Task, *model.Task) {
	order := append([]*model.Task(nil), vm.Tasks...)
	sortDesc(order, func(t *model.Task) float64 { return t.Util(cache, bw) },
		func(a, b *model.Task) int { return strings.Compare(a.ID, b.ID) })
	var bins [][]*model.Task
	var loads []float64
	for _, t := range order {
		u := t.Util(cache, bw)
		if u > 1+schedEps {
			return nil, t
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
	return bins, nil
}

// coresToAllocation freezes per-core lists of indices into vcpus with a
// uniform partition split into a model.Allocation.
func coresToAllocation(cores [][]int, vcpus []*model.VCPU, plat model.Platform, cache, bw int) *model.Allocation {
	out := &model.Allocation{Platform: plat, Schedulable: true}
	for i, is := range cores {
		var vs []*model.VCPU // nil for an empty core
		for _, vi := range is {
			vs = append(vs, vcpus[vi])
		}
		out.Cores = append(out.Cores, &model.CoreAlloc{
			Core: i, Cache: cache, BW: bw, VCPUs: vs,
		})
	}
	return out
}
