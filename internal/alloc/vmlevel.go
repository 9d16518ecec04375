// Package alloc implements vC2M's resource allocation algorithms
// (Sections 4.2 and 4.3 of the paper) and the baseline solutions used in
// the evaluation (Section 5).
//
// Allocation happens at two levels. The VM-level step maps each VM's tasks
// onto VCPUs and computes the VCPUs' cache/BW-dependent parameters, using
// one of three analyses: flattening (Theorem 1), the overhead-free
// analysis on well-regulated VCPUs (Theorem 2), or the existing
// compositional analysis (Shin & Lee). The hypervisor-level step maps the
// resulting VCPUs onto physical cores and distributes cache and bandwidth
// partitions to the cores so that every core's EDF utilization is at most
// one.
package alloc

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

	"vc2m/internal/csa"
	"vc2m/internal/kmeans"
	"vc2m/internal/metrics"
	"vc2m/internal/model"
	"vc2m/internal/obs"
	"vc2m/internal/provenance"
	"vc2m/internal/rngutil"
)

// CSAMode selects how VCPU parameters are computed at the VM level.
type CSAMode int

const (
	// Flattening maps each task to a dedicated VCPU with a synchronized
	// release (Theorem 1). Zero abstraction overhead; requires the VM to
	// support at least as many VCPUs as tasks.
	Flattening CSAMode = iota
	// OverheadFree packs tasks onto well-regulated VCPUs analyzed with
	// Theorem 2. Zero abstraction overhead; requires harmonic periods.
	OverheadFree
	// ExistingCSA packs tasks the same way but computes VCPU budgets with
	// the periodic resource model of Shin & Lee [13], which carries the
	// abstraction overhead the paper eliminates.
	ExistingCSA
	// Auto is the paper's complete strategy: flattening for every VM that
	// can host one VCPU per task (the common case), falling back to
	// well-regulated VCPUs (Theorem 2) for VMs whose task count exceeds
	// their VCPU limit. Both paths are overhead-free.
	Auto
)

// String returns the mode name used in the figures.
func (m CSAMode) String() string {
	switch m {
	case Flattening:
		return "flattening"
	case OverheadFree:
		return "overhead-free CSA"
	case ExistingCSA:
		return "existing CSA"
	case Auto:
		return "auto"
	default:
		return "unknown"
	}
}

// ErrTooManyTasks is returned by the flattening strategy when a VM's task
// count exceeds its VCPU limit.
var ErrTooManyTasks = errors.New("alloc: VM has more tasks than its VCPU limit allows")

// VMLevelConfig parameterizes the VM-level allocation.
type VMLevelConfig struct {
	// Mode selects the analysis used for VCPU parameters.
	Mode CSAMode
	// Clusters is the number of KMeans clusters used to group tasks by
	// slowdown similarity; 0 defaults to min(3, #tasks).
	Clusters int
	// Metrics, when non-nil, records clustering and analysis effort
	// (nil disables recording at no cost).
	Metrics *metrics.Recorder
	// Provenance, when non-nil, records the task-to-VCPU mapping and each
	// VCPU's derived interface (nil disables recording at no cost).
	Provenance *provenance.Recorder
	// Span, when non-nil, is the parent under which one csa.derive span is
	// opened per derived VCPU interface (nil disables at no cost).
	Span *obs.Span
}

// slowdownCap bounds slowdown-vector entries used for clustering. Budget
// tables produced by the existing CSA may contain +Inf for infeasible
// allocations; clamping keeps KMeans distances finite without affecting
// the grouping of feasible profiles.
const slowdownCap = 50.0

// VMLevel maps the VM's tasks onto VCPUs per the configuration and returns
// the VCPUs with their parameter tables. Indices are assigned starting at
// firstIndex so that VCPUs across VMs receive distinct tie-breaking
// indices.
func VMLevel(vm *model.VM, plat model.Platform, cfg VMLevelConfig, firstIndex int, rng *rngutil.RNG) ([]*model.VCPU, error) {
	if len(vm.Tasks) == 0 {
		return nil, fmt.Errorf("alloc: VM %s has no tasks", vm.ID)
	}
	switch cfg.Mode {
	case Flattening:
		return flattenVM(vm, firstIndex, cfg.Provenance)
	case OverheadFree, ExistingCSA:
		return clusterPackVM(vm, plat, cfg, firstIndex, rng)
	case Auto:
		if vm.MaxVCPUs == 0 || len(vm.Tasks) <= vm.MaxVCPUs {
			return flattenVM(vm, firstIndex, cfg.Provenance)
		}
		cfg.Mode = OverheadFree
		return clusterPackVM(vm, plat, cfg, firstIndex, rng)
	default:
		return nil, fmt.Errorf("alloc: unknown CSA mode %d", cfg.Mode)
	}
}

// flattenVM applies Theorem 1: one VCPU per task.
func flattenVM(vm *model.VM, firstIndex int, prov *provenance.Recorder) ([]*model.VCPU, error) {
	if vm.MaxVCPUs > 0 && len(vm.Tasks) > vm.MaxVCPUs {
		return nil, fmt.Errorf("%w: VM %s has %d tasks, limit %d",
			ErrTooManyTasks, vm.ID, len(vm.Tasks), vm.MaxVCPUs)
	}
	out := make([]*model.VCPU, len(vm.Tasks))
	for i, t := range vm.Tasks {
		out[i] = csa.FlattenVCPU(t, firstIndex+i)
		if prov.Enabled() {
			prov.Record(provenance.Decision{
				Stage: provenance.StageVMLevel, Kind: provenance.KindMap,
				Subject: t.ID, Target: out[i].ID, Accepted: true,
				Value:  t.RefUtil(),
				Reason: "flattening (Theorem 1): dedicated VCPU mirroring the task, zero abstraction overhead",
			})
		}
	}
	return out, nil
}

// clusterPackVM implements the VM-level heuristic of Section 4.2 for the
// overhead-free and existing analyses: group tasks with similar slowdown
// vectors via KMeans, give each cluster a VCPU count proportional to its
// reference utilization (m VCPUs total, m = min(#tasks, #cores)), pack
// tasks within each cluster onto its VCPUs in decreasing reference
// utilization onto the least-loaded VCPU, and compute each VCPU's
// parameters with the selected analysis.
func clusterPackVM(vm *model.VM, plat model.Platform, cfg VMLevelConfig, firstIndex int, rng *rngutil.RNG) ([]*model.VCPU, error) {
	tasks := vm.Tasks
	m := len(tasks)
	if plat.M < m {
		m = plat.M
	}
	if vm.MaxVCPUs > 0 && vm.MaxVCPUs < m {
		m = vm.MaxVCPUs
	}

	k := cfg.Clusters
	if k <= 0 {
		k = 3
	}
	if k > m {
		k = m
	}

	points, dim := slowdownPoints(len(tasks), func(i int) *model.ResourceTable { return tasks[i].WCET })
	clustering := kmeans.Cluster(*points, dim, k, rng)
	pointsPool.Put(points)
	rec := cfg.Metrics
	rec.Inc(MetricKMeansRuns)
	rec.Add(MetricKMeansIters, int64(clustering.Iterations))

	// Group task indices per cluster.
	groups := make([][]int, clustering.K)
	groupUtil := make([]float64, clustering.K)
	for i, c := range clustering.Assign {
		groups[c] = append(groups[c], i)
		groupUtil[c] += tasks[i].RefUtil()
	}

	counts := apportion(groupUtil, groups, m)

	var vcpuTasks [][]*model.Task
	for c, idxs := range groups {
		// Sort cluster tasks by decreasing reference utilization
		// (deterministic tie-break by index).
		sortDesc(idxs, func(i int) float64 { return tasks[i].RefUtil() }, cmp.Compare[int])
		bins := make([][]*model.Task, counts[c])
		loads := make([]float64, counts[c])
		for _, ti := range idxs {
			// Least-loaded VCPU of this cluster, to balance loads.
			best := 0
			for b := 1; b < len(loads); b++ {
				if loads[b] < loads[best] {
					best = b
				}
			}
			bins[best] = append(bins[best], tasks[ti])
			loads[best] += tasks[ti].RefUtil()
		}
		for _, bin := range bins {
			if len(bin) > 0 {
				vcpuTasks = append(vcpuTasks, bin)
			}
		}
	}

	prov := cfg.Provenance
	var mapReason string // the same for every task of the mode
	if prov.Enabled() {
		mapReason = "cluster packing (" + cfg.Mode.String() + "): least-loaded VCPU of the task's slowdown cluster"
	}
	out := make([]*model.VCPU, 0, len(vcpuTasks))
	for i, group := range vcpuTasks {
		idx := firstIndex + i
		var v *model.VCPU
		dsp := cfg.Span.Child(obs.StageCSADerive)
		dsp.SetAttr("analysis", cfg.Mode.String())
		dsp.SetInt("tasks", int64(len(group)))
		switch cfg.Mode {
		case OverheadFree:
			wr, err := csa.WellRegulatedVCPU(group, idx)
			if err != nil {
				dsp.End()
				return nil, fmt.Errorf("alloc: VM %s: %w", vm.ID, err)
			}
			v = wr
			if prov.Enabled() {
				prov.Record(provenance.Decision{
					Stage: provenance.StageCSA, Kind: provenance.KindInterface,
					Subject: v.ID, Cache: plat.C, BW: plat.B,
					Value: v.RefBandwidth(), Accepted: true,
					Reason: wellRegulatedReason(v.Period),
				})
			}
		case ExistingCSA:
			ex, _, err := csa.ExistingVCPUObs(group, idx, plat, rec, prov, dsp)
			if err != nil {
				dsp.End()
				return nil, fmt.Errorf("alloc: VM %s: %w", vm.ID, err)
			}
			v = ex
		}
		if v != nil {
			dsp.SetAttr("vcpu", v.ID)
		}
		dsp.End()
		if prov.Enabled() {
			for _, t := range group {
				prov.Record(provenance.Decision{
					Stage: provenance.StageVMLevel, Kind: provenance.KindMap,
					Subject: t.ID, Target: v.ID, Accepted: true,
					Value:  t.RefUtil(),
					Reason: mapReason,
				})
			}
		}
		out = append(out, v)
	}
	return out, nil
}

// wellRegulatedReason renders a well-regulated VCPU's interface reason,
// byte for byte what fmt.Sprintf("well-regulated (Theorem 2): period
// %.4g, bandwidth equals taskset utilization (zero abstraction
// overhead)", period) prints, without fmt's reflection.
func wellRegulatedReason(period float64) string {
	var buf [128]byte
	b := append(buf[:0], "well-regulated (Theorem 2): period "...)
	b = strconv.AppendFloat(b, period, 'g', 4, 64)
	return string(append(b, ", bandwidth equals taskset utilization (zero abstraction overhead)"...))
}

// apportion distributes total VCPUs across clusters proportionally to
// their utilization, guaranteeing at least one per non-empty cluster and
// never more than the cluster's task count, using the largest-remainder
// method. Any slack left by the task-count caps is given to the clusters
// with the largest utilization per VCPU.
func apportion(utils []float64, groups [][]int, total int) []int {
	k := len(utils)
	counts := make([]int, k)
	if k == 0 {
		return counts
	}
	var sum float64
	for _, u := range utils {
		sum += u
	}
	remaining := total
	// Baseline: one VCPU per non-empty cluster.
	for c := range counts {
		if len(groups[c]) > 0 {
			counts[c] = 1
			remaining--
		}
	}
	if remaining <= 0 {
		return counts
	}
	// Proportional shares of what is left.
	type rem struct {
		c    int
		frac float64
	}
	var rems []rem
	if sum > 0 {
		for c := range counts {
			if len(groups[c]) == 0 {
				continue
			}
			// The explicit conversion rounds the product, so that no
			// compiler fuses it into share - float64(whole) below.
			share := float64(utils[c] / sum * float64(remaining))
			whole := int(share)
			cap := len(groups[c]) - counts[c]
			if whole > cap {
				whole = cap
			}
			counts[c] += whole
			rems = append(rems, rem{c, share - float64(whole)})
		}
	} else {
		for c := range counts {
			if len(groups[c]) > 0 {
				rems = append(rems, rem{c, float64(len(groups[c]))})
			}
		}
	}
	used := 0
	for _, n := range counts {
		used += n
	}
	left := total - used
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for left > 0 {
		granted := false
		for _, r := range rems {
			if left == 0 {
				break
			}
			if counts[r.c] < len(groups[r.c]) {
				counts[r.c]++
				left--
				granted = true
			}
		}
		if !granted {
			break // every cluster saturated at one VCPU per task
		}
	}
	return counts
}

// pointsPool recycles slowdownPoints' flat buffers. A buffer is taken for
// one kmeans.Cluster call and put back as soon as it returns; Cluster
// keeps no reference to it.
var pointsPool = sync.Pool{New: func() any { return new([]float64) }}

// slowdownPoints lays out the slowdown vectors of n tables row after row
// in one flat buffer, the layout kmeans.Cluster takes, and returns it with
// the vectors' length. Each vector is written and clamped in place. n must
// be positive; tables of different shapes are a caller bug and panic, as
// ragged points do in kmeans.Cluster. The buffer comes from pointsPool and
// is filled from length 0; the caller puts it back once it is done
// clustering and must not keep *buf.
func slowdownPoints(n int, table func(i int) *model.ResourceTable) (buf *[]float64, dim int) {
	cmin, cmax, bmin, bmax := table(0).Bounds()
	dim = (cmax - cmin + 1) * (bmax - bmin + 1)
	buf = pointsPool.Get().(*[]float64)
	points := slices.Grow((*buf)[:0], n*dim)
	for i := 0; i < n; i++ {
		start := len(points)
		points = table(i).AppendSlowdown(points)
		if len(points)-start != dim {
			panic("alloc: slowdown tables of different shapes")
		}
		clampVector(points[start:])
	}
	*buf = points
	return buf, dim
}

// clampVector caps entries in place (existing-CSA budget tables may
// contain +Inf) and returns v. An entry above the cap, +Inf or NaN is
// capped: exactly the entries for which x <= slowdownCap is false, so one
// compare decides.
func clampVector(v []float64) []float64 {
	for i, x := range v {
		if !(x <= slowdownCap) {
			v[i] = slowdownCap
		}
	}
	return v
}
