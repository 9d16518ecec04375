package alloc

import (
	"fmt"
	"strconv"

	"vc2m/internal/model"
	"vc2m/internal/provenance"
	"vc2m/internal/rngutil"
)

// Admit performs online admission control: it tries to place a newly
// arriving VM's tasks onto an existing schedulable allocation without
// disturbing anything already placed — no existing VCPU migrates and no
// partition is taken away from a core. New VCPUs are computed with the
// given mode (flattening by default), placed on the core whose
// post-placement utilization is smallest; when no core can take a VCPU
// under its current partitions, spare (still unallocated) cache/BW
// partitions are granted greedily to the core where they reduce
// utilization most, mirroring Phase 2 of the offline algorithm.
//
// On success a new Allocation is returned (the input is not modified); on
// failure ErrNotSchedulable (diagnosed as a *RejectionError naming every
// violated resource, not just the first one checked) is returned and the
// running system is untouched — exactly the contract an online admission
// controller needs. Placements, spare-partition grants and the rejection
// diagnosis are recorded on prov (nil-safe).
func Admit(existing *model.Allocation, vm *model.VM, mode CSAMode, rng *rngutil.RNG, prov *provenance.Recorder) (*model.Allocation, error) {
	if existing == nil || !existing.Schedulable {
		return nil, fmt.Errorf("alloc: Admit requires an existing schedulable allocation")
	}
	if rng == nil {
		rng = rngutil.New(0)
	}
	plat := existing.Platform

	firstIndex := 0
	for _, v := range existing.VCPUs() {
		if v.Index >= firstIndex {
			firstIndex = v.Index + 1
		}
	}
	newVCPUs, err := VMLevel(vm, plat, VMLevelConfig{Mode: mode, Provenance: prov}, firstIndex, rng)
	if err != nil {
		return nil, err
	}

	// Working copy: share VCPU pointers of existing cores (they are not
	// modified), copy the per-core slices and partition counts.
	cores := make([]*coreState, len(existing.Cores))
	coreIDs := make([]int, len(existing.Cores))
	for i, ca := range existing.Cores {
		cores[i] = &coreState{
			vcpus: append([]*model.VCPU(nil), ca.VCPUs...),
			cache: ca.Cache,
			bw:    ca.BW,
		}
		coreIDs[i] = ca.Core
	}
	spareCache := plat.C - existing.UsedCache()
	spareBW := plat.B - existing.UsedBW()

	cores, coreIDs = bringInIdleCores(cores, coreIDs, plat, &spareCache, &spareBW)

	for _, v := range newVCPUs {
		if re := placeOneGrowing(cores, coreIDs, plat, v, vm.ID, &spareCache, &spareBW, provenance.StageAdmit, prov); re != nil {
			return nil, re
		}
	}

	out := &model.Allocation{
		Platform:    plat,
		Schedulable: true,
		Solution:    existing.Solution + " + admitted " + vm.ID,
	}
	for i, cs := range cores {
		if len(cs.vcpus) == 0 {
			continue
		}
		out.Cores = append(out.Cores, &model.CoreAlloc{
			Core:  coreIDs[i],
			Cache: cs.cache,
			BW:    cs.bw,
			VCPUs: cs.vcpus,
		})
	}
	return out, nil
}

// Release removes a VM's VCPUs from an allocation — the online departure
// path complementing Admit. Cores keep their partition grants (returning
// partitions to the spare pool is free capacity for the next Admit);
// cores left without VCPUs are dropped, releasing their partitions
// entirely. The input is not modified. Removing an unknown VM is an
// error, so callers notice double-releases.
func Release(existing *model.Allocation, vmID string) (*model.Allocation, error) {
	if existing == nil {
		return nil, fmt.Errorf("alloc: Release on nil allocation")
	}
	found := false
	out := &model.Allocation{
		Platform:    existing.Platform,
		Schedulable: existing.Schedulable,
		Solution:    existing.Solution + " - released " + vmID,
	}
	for _, ca := range existing.Cores {
		kept := make([]*model.VCPU, 0, len(ca.VCPUs))
		for _, v := range ca.VCPUs {
			if v.VM == vmID {
				found = true
				continue
			}
			kept = append(kept, v)
		}
		if len(kept) == 0 {
			continue
		}
		out.Cores = append(out.Cores, &model.CoreAlloc{
			Core: ca.Core, Cache: ca.Cache, BW: ca.BW, VCPUs: kept,
		})
	}
	if !found {
		return nil, fmt.Errorf("alloc: VM %q not present in allocation", vmID)
	}
	return out, nil
}

// bringInIdleCores adds every unused physical core to the working set at
// the minimum partitions, as long as the spare pool can pay for them. Both
// the admission and the warm-start paths call it so freed capacity on idle
// cores is usable without a repack.
func bringInIdleCores(cores []*coreState, coreIDs []int, plat model.Platform, spareCache, spareBW *int) ([]*coreState, []int) {
	used := map[int]bool{}
	for _, id := range coreIDs {
		used[id] = true
	}
	for id := 0; id < plat.M; id++ {
		if used[id] {
			continue
		}
		if *spareCache >= plat.Cmin && *spareBW >= plat.Bmin {
			cores = append(cores, &coreState{cache: plat.Cmin, bw: plat.Bmin})
			coreIDs = append(coreIDs, id)
			*spareCache -= plat.Cmin
			*spareBW -= plat.Bmin
		}
	}
	return cores, coreIDs
}

// placeOneGrowing places one new VCPU without disturbing anything already
// placed: first on the feasible core with the smallest post-placement
// utilization, and failing that on the best host growable with spare
// partitions, granted one by one until the VCPU fits. It mutates cores and
// the spare pool on success; on failure it returns a RejectionError naming
// every binding resource and leaves no partial grant behind only in the
// sense that the caller owns the (possibly trial) state. stage names the
// provenance stage decisions are recorded under, so online admission
// ("admit") and warm-start re-allocation ("incremental") share the
// mechanics but keep distinct decision trails.
func placeOneGrowing(cores []*coreState, coreIDs []int, plat model.Platform, v *model.VCPU, vmID string, spareCache, spareBW *int, stage string, prov *provenance.Recorder) *RejectionError {
	if placed := placeBest(cores, v); placed >= 0 {
		if prov.Enabled() {
			cs := cores[placed]
			prov.Record(provenance.Decision{
				Stage: stage, Kind: provenance.KindPlace,
				Subject: v.ID, Target: coreName(coreIDs[placed]),
				Cache: cs.cache, BW: cs.bw,
				Value: cs.util(), Accepted: true,
				Reason: "smallest post-placement utilization among feasible cores",
			})
		}
		return nil
	}
	// No core fits under current partitions: pick the host that would
	// be best after receiving every remaining spare partition, then
	// grant spares to it one by one until the VCPU fits. Committing
	// to one host avoids scattering grants across cores, none of
	// which would then become feasible.
	host := chooseGrowableHost(cores, plat, v, *spareCache, *spareBW)
	if host < 0 {
		re := &RejectionError{
			Stage:    stage,
			Reason:   hopelessReason(v.ID, vmID, *spareCache, *spareBW),
			Violated: admitHopeless(cores, plat, v, *spareCache, *spareBW).violated(),
		}
		if prov.Enabled() {
			prov.Record(provenance.Decision{
				Stage: stage, Kind: provenance.KindReject,
				Subject: v.ID, Value: v.RefBandwidth(),
				Reason: re.Reason, Violated: re.Violated,
			})
		}
		return re
	}
	for !fitsOn(cores[host], v) {
		granted, isCache := grantTo(cores[host], plat, v, spareCache, spareBW)
		if !granted {
			re := &RejectionError{
				Stage:    stage,
				Reason:   noHelpReason(v.ID, coreIDs[host], *spareCache, *spareBW),
				Violated: grantViolations(cores[host], plat, v, *spareCache, *spareBW).violated(),
			}
			if prov.Enabled() {
				prov.Record(provenance.Decision{
					Stage: stage, Kind: provenance.KindReject,
					Subject: v.ID, Target: coreName(coreIDs[host]),
					Cache: cores[host].cache, BW: cores[host].bw,
					Reason: re.Reason, Violated: re.Violated,
				})
			}
			return re
		}
		if prov.Enabled() {
			kind := provenance.Cache
			if !isCache {
				kind = provenance.BW
			}
			prov.Record(provenance.Decision{
				Stage: stage, Kind: provenance.KindGrant,
				Subject: coreName(coreIDs[host]), Target: string(kind),
				Cache: cores[host].cache, BW: cores[host].bw, Accepted: true,
				Reason: grantSpareReason(kind, v.ID),
			})
		}
	}
	cores[host].vcpus = append(cores[host].vcpus, v)
	cores[host].touch()
	if prov.Enabled() {
		cs := cores[host]
		prov.Record(provenance.Decision{
			Stage: stage, Kind: provenance.KindPlace,
			Subject: v.ID, Target: coreName(coreIDs[host]),
			Cache: cs.cache, BW: cs.bw,
			Value: cs.util(), Accepted: true,
			Reason: "placed after growing the host with spare partitions",
		})
	}
	return nil
}

// placeBest puts v on the feasible core with the smallest resulting
// utilization and returns that core's index, or -1 when no core fits.
func placeBest(cores []*coreState, v *model.VCPU) int {
	best := -1
	bestUtil := 0.0
	for i, cs := range cores {
		after := cs.util() + v.Bandwidth(cs.cache, cs.bw)
		if !schedulable(after) {
			continue
		}
		if best == -1 || after < bestUtil {
			best, bestUtil = i, after
		}
	}
	if best == -1 {
		return -1
	}
	cores[best].vcpus = append(cores[best].vcpus, v)
	cores[best].touch()
	return best
}

// fitsOn reports whether v fits on the core under its current partitions.
func fitsOn(cs *coreState, v *model.VCPU) bool {
	return schedulable(cs.util() + v.Bandwidth(cs.cache, cs.bw))
}

// chooseGrowableHost returns the index of the core with the smallest total
// utilization (including v) under the maximal partitions it could reach
// with the available spares, provided that utilization is schedulable; -1
// if no core can ever host v.
func chooseGrowableHost(cores []*coreState, plat model.Platform, v *model.VCPU, spareCache, spareBW int) int {
	best := -1
	bestUtil := 0.0
	for i, cs := range cores {
		maxC := cs.cache + spareCache
		if maxC > plat.C {
			maxC = plat.C
		}
		maxB := cs.bw + spareBW
		if maxB > plat.B {
			maxB = plat.B
		}
		after := cs.utilAt(maxC, maxB) + v.Bandwidth(maxC, maxB)
		if !schedulable(after) {
			continue
		}
		if best == -1 || after < bestUtil {
			best, bestUtil = i, after
		}
	}
	return best
}

// grantTo gives the host one spare partition, cache or BW, whichever
// reduces the host's prospective utilization (including v) more; it
// reports whether a grant with positive effect happened and which kind
// it was.
func grantTo(cs *coreState, plat model.Platform, v *model.VCPU, spareCache, spareBW *int) (granted, isCache bool) {
	cur := cs.util() + v.Bandwidth(cs.cache, cs.bw)
	gainCache, gainBW := 0.0, 0.0
	if *spareCache > 0 && cs.cache < plat.C {
		gainCache = gain(cur, cs.utilMoreCache()+v.Bandwidth(cs.cache+1, cs.bw))
	}
	if *spareBW > 0 && cs.bw < plat.B {
		gainBW = gain(cur, cs.utilMoreBW()+v.Bandwidth(cs.cache, cs.bw+1))
	}
	switch {
	case gainCache <= schedEps && gainBW <= schedEps:
		return false, false
	case gainCache >= gainBW:
		*spareCache--
		isCache = true
	default:
		*spareBW--
	}
	cs.grant(isCache)
	return true, isCache
}

// grantViolations classifies a grantTo failure, naming EVERY resource that
// blocked the admission rather than whichever check happened first: a
// resource is violated when one more partition of it would still reduce
// the prospective utilization (so the core is starved of it) but the spare
// pool is empty; when no partition helps at all the admission is
// CPU-bound.
func grantViolations(cs *coreState, plat model.Platform, v *model.VCPU, spareCache, spareBW int) failCause {
	cur := cs.util() + v.Bandwidth(cs.cache, cs.bw)
	var f failCause
	if cs.cache < plat.C && gain(cur, cs.utilMoreCache()+v.Bandwidth(cs.cache+1, cs.bw)) > schedEps && spareCache == 0 {
		f.cache = true
	}
	if cs.bw < plat.B && gain(cur, cs.utilMoreBW()+v.Bandwidth(cs.cache, cs.bw+1)) > schedEps && spareBW == 0 {
		f.bw = true
	}
	if !f.cache && !f.bw {
		f.cpu = true
	}
	return f
}

// admitHopeless classifies a chooseGrowableHost failure: for every core,
// either the VCPU is CPU-bound (over 1 even under the platform's full
// partitions) or the spare pool is too small to grow the core far enough
// (cache- and/or BW-starved). The union across cores names every binding
// resource.
func admitHopeless(cores []*coreState, plat model.Platform, v *model.VCPU, spareCache, spareBW int) failCause {
	var f failCause
	for _, cs := range cores {
		if !schedulable(cs.utilAt(plat.C, plat.B) + v.Bandwidth(plat.C, plat.B)) {
			f.cpu = true
			continue
		}
		// The core would fit v under full partitions; the spare pool is
		// what stopped it from getting there.
		if cs.cache+spareCache < plat.C {
			f.cache = true
		}
		if cs.bw+spareBW < plat.B {
			f.bw = true
		}
	}
	return f
}

// The three reasons placeOneGrowing records, built without fmt: the
// grant reason is recorded once per spare partition on churn's path.
// TestAdmitReasonsMatchSprintf holds each to the fmt.Sprintf form it
// replaced.

// grantSpareReason is the reason for granting a spare kind partition so
// that VCPU vcpu can fit.
func grantSpareReason(kind provenance.Resource, vcpu string) string {
	return "spare " + string(kind) + " partition granted so VCPU " + vcpu + " can fit"
}

// hopelessReason is the rejection reason for a VCPU that no core could
// host even with every spare partition.
func hopelessReason(vcpu, vm string, spareCache, spareBW int) string {
	return "VCPU " + vcpu + " of VM " + vm + " fits on no core even after granting every spare partition (" +
		strconv.Itoa(spareCache) + " cache, " + strconv.Itoa(spareBW) + " bw left)"
}

// noHelpReason is the rejection reason for a VCPU that no further spare
// partition helps on its chosen host core.
func noHelpReason(vcpu string, core, spareCache, spareBW int) string {
	return "no spare partition still helps VCPU " + vcpu + " on core " + strconv.Itoa(core) +
		" (" + strconv.Itoa(spareCache) + " cache, " + strconv.Itoa(spareBW) + " bw left)"
}
