package alloc

import (
	"fmt"
	"sort"

	"vc2m/internal/csa"
	"vc2m/internal/metrics"
	"vc2m/internal/model"
	"vc2m/internal/obs"
	"vc2m/internal/provenance"
	"vc2m/internal/rngutil"
)

// Delta is one churn step against a running allocation: VMs leaving the
// fleet and VMs arriving. Departures are applied first, so a delta that
// departs and re-arrives the same VM ID is a replacement.
type Delta struct {
	// Arrivals are the VMs asking to join, processed in order.
	Arrivals []*model.VM
	// Departures are the IDs of VMs leaving. Departing an unknown VM is an
	// error (so callers notice double-releases), exactly like Release.
	Departures []string
}

// Empty reports whether the delta changes nothing.
func (d Delta) Empty() bool { return len(d.Arrivals) == 0 && len(d.Departures) == 0 }

// IncrementalConfig parameterizes warm-start re-allocation.
type IncrementalConfig struct {
	// Mode selects the VM-level analysis for arriving VMs. Untouched VMs
	// never have their interfaces recomputed, whatever the mode.
	Mode CSAMode
	// Clusters is the VM-level KMeans cluster count (0 defaults like
	// VMLevelConfig).
	Clusters int
	// Hyper configures the full-repack fallback. Its Overheads field is
	// ignored: the warm-start path inflates arriving VCPUs itself (see
	// Overheads below), and surviving VCPUs were inflated when they were
	// first allocated, so a repack inflating again would double-charge.
	Hyper HyperConfig
	// Overheads inflates the budgets of arriving VMs' VCPUs, mirroring
	// what HyperLevel does on the from-scratch path; zero disables.
	Overheads csa.Overheads
	// Metrics, when non-nil, records churn counters (nil disables
	// recording at no cost).
	Metrics *metrics.Recorder
	// Provenance, when non-nil, records every admit/evict verdict, every
	// warm placement and grant, and one migrate decision per VCPU a repack
	// moved (nil disables recording at one pointer compare per site).
	Provenance *provenance.Recorder
	// Span, when non-nil, is the parent under which one alloc.incremental
	// span is opened per Incremental call (nil disables at no cost).
	Span *obs.Span
}

// IncrementalResult is the outcome of one warm-start re-allocation.
type IncrementalResult struct {
	// Allocation is the layout after the delta. It is always schedulable:
	// arrivals that would break schedulability are rejected, not placed.
	Allocation *model.Allocation
	// Admitted and Rejected partition the delta's arrivals by verdict, in
	// arrival order.
	Admitted []string
	Rejected []string
	// Departed lists the departures applied, in departure order.
	Departed []string
	// Migrated lists every VCPU ID a repack moved to a different physical
	// core, deduplicated, in discovery order. Warm placements never
	// migrate anything, so this is empty while Repacks is 0.
	Migrated []string
	// Repacks counts how many arrivals fell back to a full hypervisor-
	// level repack because freed/slack capacity could not host them.
	Repacks int
}

// incrementalState is the mutable working layout threaded through one
// Incremental call: core assignments, the spare partition pool, and the
// identity sets used to validate arrivals against the running fleet.
type incrementalState struct {
	plat       model.Platform
	cores      []*coreState
	coreIDs    []int
	spareCache int
	spareBW    int
	vms        map[string]bool   // VM IDs currently placed
	taskOwner  map[string]string // task ID -> owning VM ID
	nextIndex  int               // next fresh VCPU index
}

// Incremental applies a churn delta to a previous schedulable allocation
// without recomputing the fleet: departures free their VCPUs (and, when a
// core empties, its partitions), and each arrival is first warm-placed into
// freed/slack capacity — reusing the admission mechanics and, crucially,
// the memoized budget tables of every untouched VM — before falling back to
// one full hypervisor-level repack of the union. Only the arriving VM's
// interfaces are derived; everything already placed keeps its VCPU objects
// (and their demand tables) by pointer.
//
// Arrivals that fit nowhere are rejected in the result, not returned as an
// error; the layout then does not change for that VM. Errors are reserved
// for invalid input (nil/unschedulable previous layout, unknown departure,
// duplicate VM or task IDs, malformed tasks) and leave no partial state:
// prev is never modified.
//
// The equivalence contract, enforced by the differential test suite: after
// any churn sequence the resulting allocation validates against the final
// VM set's tasks (every budget within C/B, every core utilization <= 1,
// every task mapped exactly once) — i.e. it is schedulable-equivalent to a
// from-scratch allocation of the same final fleet.
func Incremental(prev *model.Allocation, delta Delta, cfg IncrementalConfig, rng *rngutil.RNG) (*IncrementalResult, error) {
	if prev == nil || !prev.Schedulable {
		return nil, fmt.Errorf("alloc: Incremental requires an existing schedulable allocation")
	}
	if err := prev.Platform.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		rng = rngutil.New(0)
	}
	rec := cfg.Metrics
	prov := cfg.Provenance
	rec.Inc(MetricIncrementalCalls)
	sp := cfg.Span.Child(obs.StageIncremental)
	defer sp.End()

	st := newIncrementalState(prev)
	res := &IncrementalResult{}

	for _, id := range delta.Departures {
		if err := st.depart(id, prov); err != nil {
			return nil, err
		}
		rec.Inc(MetricIncrementalEvicts)
		res.Departed = append(res.Departed, id)
	}

	seen := map[string]bool{}
	for _, vm := range delta.Arrivals {
		if err := st.validateArrival(vm, seen); err != nil {
			return nil, err
		}
		seen[vm.ID] = true
		vcpus, err := VMLevel(vm, st.plat, VMLevelConfig{
			Mode: cfg.Mode, Clusters: cfg.Clusters,
			Metrics: rec, Provenance: prov, Span: sp,
		}, st.nextIndex, rng)
		if err != nil {
			return nil, err
		}
		for i, v := range vcpus {
			vcpus[i] = cfg.Overheads.InflateVCPU(v)
			if vcpus[i].Index >= st.nextIndex {
				st.nextIndex = vcpus[i].Index + 1
			}
		}
		verdict := st.admit(vm, vcpus, cfg, rng, res)
		if verdict {
			rec.Inc(MetricIncrementalAdmits)
			res.Admitted = append(res.Admitted, vm.ID)
		} else {
			rec.Inc(MetricIncrementalRejects)
			res.Rejected = append(res.Rejected, vm.ID)
		}
	}

	res.Allocation = st.freeze(prev.Solution)
	sp.SetInt("admitted", int64(len(res.Admitted)))
	sp.SetInt("rejected", int64(len(res.Rejected)))
	sp.SetInt("departed", int64(len(res.Departed)))
	sp.SetInt("repacks", int64(res.Repacks))
	return res, nil
}

// newIncrementalState copies prev into a mutable working layout. VCPU
// objects are shared by pointer (they are never mutated); the per-core
// slices and partition counts are copied.
func newIncrementalState(prev *model.Allocation) *incrementalState {
	st := &incrementalState{
		plat:      prev.Platform,
		vms:       map[string]bool{},
		taskOwner: map[string]string{},
	}
	for _, ca := range prev.Cores {
		st.cores = append(st.cores, &coreState{
			vcpus: append([]*model.VCPU(nil), ca.VCPUs...),
			cache: ca.Cache,
			bw:    ca.BW,
		})
		st.coreIDs = append(st.coreIDs, ca.Core)
		for _, v := range ca.VCPUs {
			st.vms[v.VM] = true
			for _, t := range v.Tasks {
				st.taskOwner[t.ID] = v.VM
			}
			if v.Index >= st.nextIndex {
				st.nextIndex = v.Index + 1
			}
		}
	}
	st.spareCache = prev.Platform.C - prev.UsedCache()
	st.spareBW = prev.Platform.B - prev.UsedBW()
	return st
}

// depart removes one VM's VCPUs; cores left empty release their partitions
// back to the spare pool entirely, so the next arrival can re-grow them
// where demand actually is.
func (st *incrementalState) depart(vmID string, prov *provenance.Recorder) error {
	if !st.vms[vmID] {
		return fmt.Errorf("alloc: Incremental departure of VM %q not present in allocation", vmID)
	}
	freedCache, freedBW, freedVCPUs := 0, 0, 0
	for i := 0; i < len(st.cores); i++ {
		cs := st.cores[i]
		kept := make([]*model.VCPU, 0, len(cs.vcpus))
		for _, v := range cs.vcpus {
			if v.VM == vmID {
				freedVCPUs++
				continue
			}
			kept = append(kept, v)
		}
		if len(kept) == len(cs.vcpus) {
			continue
		}
		cs.vcpus = kept
		cs.touch()
		if len(cs.vcpus) == 0 {
			freedCache += cs.cache
			freedBW += cs.bw
			st.spareCache += cs.cache
			st.spareBW += cs.bw
			st.cores = append(st.cores[:i], st.cores[i+1:]...)
			st.coreIDs = append(st.coreIDs[:i], st.coreIDs[i+1:]...)
			i--
		}
	}
	delete(st.vms, vmID)
	for tid, owner := range st.taskOwner { //vc2m:ordered only deletes matching entries; order cannot escape
		if owner == vmID {
			delete(st.taskOwner, tid)
		}
	}
	if prov.Enabled() {
		prov.Record(provenance.Decision{
			Stage: provenance.StageIncremental, Kind: provenance.KindEvict,
			Subject: vmID, Cache: freedCache, BW: freedBW,
			Value: float64(freedVCPUs), Accepted: true,
			Reason: fmt.Sprintf("departure freed %d VCPUs, %d cache and %d bw partitions returned to the spare pool",
				freedVCPUs, freedCache, freedBW),
		})
	}
	return nil
}

// validateArrival rejects malformed or colliding arrivals as errors before
// any state changes: the same conditions a from-scratch System.Validate of
// the final fleet would flag, plus WCET-table bounds (so churn deltas from
// untrusted input — the fuzz harness, the server API — can never drive a
// ResourceTable lookup out of range and panic).
func (st *incrementalState) validateArrival(vm *model.VM, seen map[string]bool) error {
	if vm == nil {
		return fmt.Errorf("alloc: Incremental arrival is nil")
	}
	if vm.ID == "" {
		return fmt.Errorf("alloc: Incremental arrival with empty VM ID")
	}
	if st.vms[vm.ID] || seen[vm.ID] {
		return fmt.Errorf("alloc: Incremental arrival of duplicate VM %q", vm.ID)
	}
	if len(vm.Tasks) == 0 {
		return fmt.Errorf("alloc: Incremental arrival %q has no tasks", vm.ID)
	}
	local := map[string]bool{}
	for _, t := range vm.Tasks {
		if t == nil {
			return fmt.Errorf("alloc: Incremental arrival %q has a nil task", vm.ID)
		}
		// The VM-level analyses stamp each VCPU with its task's VM
		// back-reference, and departures later match VCPUs by that field —
		// so an unattributable task would strand its VCPUs in the layout
		// forever. Fill in an omitted back-reference, reject a wrong one.
		if t.VM == "" {
			t.VM = vm.ID
		} else if t.VM != vm.ID {
			return fmt.Errorf("alloc: Incremental arrival %q: task %s claims VM %q", vm.ID, t.ID, t.VM)
		}
		if err := t.Validate(); err != nil {
			return fmt.Errorf("alloc: Incremental arrival %q: %w", vm.ID, err)
		}
		cmin, cmax, bmin, bmax := t.WCET.Bounds()
		if cmin != st.plat.Cmin || cmax != st.plat.C || bmin != st.plat.Bmin || bmax != st.plat.B {
			return fmt.Errorf("alloc: Incremental arrival %q: task %s WCET table c[%d,%d] b[%d,%d] does not cover platform c[%d,%d] b[%d,%d]",
				vm.ID, t.ID, cmin, cmax, bmin, bmax, st.plat.Cmin, st.plat.C, st.plat.Bmin, st.plat.B)
		}
		if owner, taken := st.taskOwner[t.ID]; taken {
			return fmt.Errorf("alloc: Incremental arrival %q: task ID %q already owned by VM %q", vm.ID, t.ID, owner)
		}
		if local[t.ID] {
			return fmt.Errorf("alloc: Incremental arrival %q: duplicate task ID %q", vm.ID, t.ID)
		}
		local[t.ID] = true
	}
	return nil
}

// admit decides one arrival: the deterministic infeasibility screen first
// (a VCPU over bandwidth 1 under the full allocation is hopeless on every
// path, warm or cold), then a warm placement trial on a cloned layout, then
// the full repack fallback. It reports whether the VM was admitted; on
// rejection the working layout is unchanged.
func (st *incrementalState) admit(vm *model.VM, vcpus []*model.VCPU, cfg IncrementalConfig, rng *rngutil.RNG, res *IncrementalResult) bool {
	prov := cfg.Provenance
	for _, v := range vcpus {
		if !schedulable(v.RefBandwidth()) {
			if prov.Enabled() {
				prov.Record(provenance.Decision{
					Stage: provenance.StageIncremental, Kind: provenance.KindReject,
					Subject: vm.ID, Target: v.ID,
					Cache: st.plat.C, BW: st.plat.B,
					Value: v.RefBandwidth(),
					Reason: fmt.Sprintf("VCPU %s needs bandwidth %.3f > 1 even under the full (C,B) allocation",
						v.ID, v.RefBandwidth()),
					Violated: []provenance.Resource{provenance.CPU},
				})
			}
			return false
		}
	}

	if st.warmPlace(vm, vcpus, cfg) {
		if prov.Enabled() {
			prov.Record(provenance.Decision{
				Stage: provenance.StageIncremental, Kind: provenance.KindAdmit,
				Subject: vm.ID, Value: float64(len(vcpus)), Accepted: true,
				Reason: fmt.Sprintf("warm-placed %d VCPUs into freed/slack capacity, nothing migrated", len(vcpus)),
			})
		}
		st.absorb(vm)
		return true
	}
	if st.repack(vm, vcpus, cfg, rng, res) {
		if prov.Enabled() {
			prov.Record(provenance.Decision{
				Stage: provenance.StageIncremental, Kind: provenance.KindAdmit,
				Subject: vm.ID, Value: float64(len(vcpus)), Accepted: true,
				Reason: "admitted by full repack after warm placement failed",
			})
		}
		st.absorb(vm)
		return true
	}
	if prov.Enabled() {
		prov.Record(provenance.Decision{
			Stage: provenance.StageIncremental, Kind: provenance.KindReject,
			Subject: vm.ID, Value: float64(len(vcpus)),
			Reason:   "neither warm placement nor a full repack can host the VM",
			Violated: []provenance.Resource{provenance.CPU, provenance.Cache, provenance.BW},
		})
	}
	return false
}

// absorb registers an admitted VM's identity in the working sets.
func (st *incrementalState) absorb(vm *model.VM) {
	st.vms[vm.ID] = true
	for _, t := range vm.Tasks {
		st.taskOwner[t.ID] = vm.ID
	}
}

// warmPlace tries the arrival on a cloned layout using the admission
// mechanics (placeBest, growable hosts, idle-core bring-in) and commits the
// clone only when every VCPU fits — a failed trial leaves the working
// layout untouched, so the repack fallback starts from a clean slate.
func (st *incrementalState) warmPlace(vm *model.VM, vcpus []*model.VCPU, cfg IncrementalConfig) bool {
	trial := make([]*coreState, len(st.cores))
	for i, cs := range st.cores {
		trial[i] = &coreState{
			vcpus: append([]*model.VCPU(nil), cs.vcpus...),
			cache: cs.cache,
			bw:    cs.bw,
		}
	}
	trialIDs := append([]int(nil), st.coreIDs...)
	spareCache, spareBW := st.spareCache, st.spareBW
	trial, trialIDs = bringInIdleCores(trial, trialIDs, st.plat, &spareCache, &spareBW)
	for _, v := range vcpus {
		if re := placeOneGrowing(trial, trialIDs, st.plat, v, vm.ID, &spareCache, &spareBW, provenance.StageIncremental, cfg.Provenance); re != nil {
			return false
		}
	}
	// Commit, returning cores the trial brought in but never used (and
	// their minimum partitions) to the spare pool.
	st.cores = st.cores[:0]
	st.coreIDs = st.coreIDs[:0]
	for i, cs := range trial {
		if len(cs.vcpus) == 0 {
			spareCache += cs.cache
			spareBW += cs.bw
			continue
		}
		st.cores = append(st.cores, cs)
		st.coreIDs = append(st.coreIDs, trialIDs[i])
	}
	st.spareCache, st.spareBW = spareCache, spareBW
	return true
}

// repack is the fallback: one full hypervisor-level search over the union
// of every placed VCPU and the arrival. The union's budgets are already
// inflated (survivors at their original allocation, the arrival by
// Incremental), so the search runs with zero Overheads. On success the new
// cores are relabeled to maximize overlap with the old physical cores and
// one migrate decision is recorded per VCPU that actually moved.
func (st *incrementalState) repack(vm *model.VM, vcpus []*model.VCPU, cfg IncrementalConfig, rng *rngutil.RNG, res *IncrementalResult) bool {
	prov := cfg.Provenance
	prevCore := map[string]int{}
	union := make([]*model.VCPU, 0, len(vcpus))
	for i, cs := range st.cores {
		for _, v := range cs.vcpus {
			prevCore[v.ID] = st.coreIDs[i]
			union = append(union, v)
		}
	}
	union = append(union, vcpus...)

	hyCfg := cfg.Hyper
	hyCfg.Overheads = csa.Overheads{}
	hyCfg.Metrics = cfg.Metrics
	hyCfg.Provenance = prov
	hyCfg.Span = cfg.Span
	// Warm-start hint: the survivors already occupy len(st.cores) cores and
	// the union adds a VM on top, so core counts below that almost never
	// pack — skip them instead of burning MaxIters failed packings on each.
	// Respect an explicit caller hint if it is larger.
	if hyCfg.MinCores < len(st.cores) {
		hyCfg.MinCores = len(st.cores)
	}
	a, err := HyperLevel(union, st.plat, hyCfg, rng)
	if err != nil {
		return false
	}
	cfg.Metrics.Inc(MetricIncrementalRepacks)
	res.Repacks++
	relabelCores(prevCore, a)

	st.cores = st.cores[:0]
	st.coreIDs = st.coreIDs[:0]
	for _, ca := range a.Cores {
		st.cores = append(st.cores, &coreState{
			vcpus: append([]*model.VCPU(nil), ca.VCPUs...),
			cache: ca.Cache,
			bw:    ca.BW,
		})
		st.coreIDs = append(st.coreIDs, ca.Core)
		for _, v := range ca.VCPUs {
			old, existed := prevCore[v.ID]
			if !existed || old == ca.Core {
				continue
			}
			if !contains(res.Migrated, v.ID) {
				res.Migrated = append(res.Migrated, v.ID)
			}
			if prov.Enabled() {
				prov.Record(provenance.Decision{
					Stage: provenance.StageRepack, Kind: provenance.KindMigrate,
					Subject: v.ID, Target: coreName(old) + " -> " + coreName(ca.Core),
					Cache: ca.Cache, BW: ca.BW, Accepted: true,
					Reason: fmt.Sprintf("full repack to admit VM %s moved this VCPU", vm.ID),
				})
			}
		}
	}
	st.spareCache = st.plat.C - a.UsedCache()
	st.spareBW = st.plat.B - a.UsedBW()
	return true
}

// relabelCores renames a repacked allocation's cores (HyperLevel numbers
// them 0..m-1) to the physical IDs they overlap most with in the previous
// layout, greedily, ties broken deterministically; unmatched cores take the
// lowest unused IDs. Without this, a repack that reproduces the old layout
// under a permuted numbering would read as a fleet-wide migration — the
// phantom migrations the property tests forbid.
func relabelCores(prevCore map[string]int, a *model.Allocation) {
	n := len(a.Cores)
	overlap := make([]map[int]int, n)
	for i, ca := range a.Cores {
		overlap[i] = map[int]int{}
		for _, v := range ca.VCPUs {
			if old, ok := prevCore[v.ID]; ok {
				overlap[i][old]++
			}
		}
	}
	assigned := make([]int, n)
	for i := range assigned {
		assigned[i] = -1
	}
	usedID := map[int]bool{}
	for {
		bestCore, bestOld, bestCnt := -1, -1, 0
		for i := range a.Cores {
			if assigned[i] >= 0 {
				continue
			}
			olds := make([]int, 0, len(overlap[i]))
			for o := range overlap[i] { //vc2m:ordered keys are collected and sorted before use
				olds = append(olds, o)
			}
			sort.Ints(olds)
			for _, o := range olds {
				if usedID[o] {
					continue
				}
				if c := overlap[i][o]; c > bestCnt {
					bestCore, bestOld, bestCnt = i, o, c
				}
			}
		}
		if bestCore < 0 {
			break
		}
		assigned[bestCore] = bestOld
		usedID[bestOld] = true
	}
	next := 0
	for i := range a.Cores {
		if assigned[i] >= 0 {
			continue
		}
		for usedID[next] {
			next++
		}
		assigned[i] = next
		usedID[next] = true
	}
	for i, ca := range a.Cores {
		ca.Core = assigned[i]
	}
	sort.Slice(a.Cores, func(x, y int) bool { return a.Cores[x].Core < a.Cores[y].Core })
}

// contains reports whether list holds s; churn deltas move a handful of
// VCPUs, so a linear scan beats allocating a set.
func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// freeze builds the final Allocation from the working layout, keeping the
// previous solution label (an incremental layout is still the product of
// the same solution, applied over time).
func (st *incrementalState) freeze(solution string) *model.Allocation {
	out := &model.Allocation{
		Platform:    st.plat,
		Schedulable: true,
		Solution:    solution,
	}
	for i, cs := range st.cores {
		if len(cs.vcpus) == 0 {
			continue
		}
		out.Cores = append(out.Cores, &model.CoreAlloc{
			Core:  st.coreIDs[i],
			Cache: cs.cache,
			BW:    cs.bw,
			VCPUs: append([]*model.VCPU(nil), cs.vcpus...),
		})
	}
	return out
}
