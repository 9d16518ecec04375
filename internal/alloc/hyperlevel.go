package alloc

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"

	"vc2m/internal/csa"
	"vc2m/internal/kmeans"
	"vc2m/internal/metrics"
	"vc2m/internal/model"
	"vc2m/internal/obs"
	"vc2m/internal/provenance"
	"vc2m/internal/rngutil"
)

// HyperConfig parameterizes the hypervisor-level allocation of Section 4.3.
type HyperConfig struct {
	// MaxIters is the number of random cluster permutations tried per core
	// count (the user-defined iteration bound of the paper); 0 defaults
	// to 10.
	MaxIters int
	// Clusters is the KMeans cluster count for grouping VCPUs by slowdown
	// similarity; 0 defaults to min(3, #VCPUs).
	Clusters int
	// MaxBalanceRounds bounds the Phase 3 <-> Phase 2 loop per packing;
	// 0 defaults to 16.
	MaxBalanceRounds int
	// MinCores is a warm-start hint: the search starts at m = MinCores
	// instead of m = 1, skipping core counts the caller already knows are
	// too small (the incremental repack passes the surviving layout's core
	// count — a fleet that needed k cores before an arrival will not fit on
	// fewer with one more VM). 0 or 1 preserves the full search.
	MinCores int
	// Overheads inflates VCPU budgets for intra-core preemption and
	// completion overhead before allocation ([17]); zero disables.
	Overheads csa.Overheads
	// Metrics, when non-nil, records search-effort counters (nil disables
	// recording at no cost).
	Metrics *metrics.Recorder
	// Provenance, when non-nil, records every packing attempt, partition
	// grant, migration and the final verdict with the binding resources
	// (nil disables recording at one pointer compare per site).
	Provenance *provenance.Recorder
	// Ctx, when non-nil, is polled between packing attempts: a canceled
	// context aborts the search and HyperLevel returns the context's
	// error. Long-running services (the allocation server, interruptible
	// sweeps) use it to stop abandoned allocations promptly; a nil Ctx
	// costs one comparison per attempt.
	//vc2m:ctxfield optional cancellation hook on a config struct; nil runs to completion
	Ctx context.Context
	// Span, when non-nil, is the parent under which one alloc.phase1/2/3
	// span is opened per phase invocation (nil disables at no cost).
	Span *obs.Span

	// Ablation switches, used by the design-choice benchmarks to quantify
	// what each ingredient of the heuristic contributes.

	// NoClustering places all VCPUs in a single cluster, removing the
	// slowdown-similarity grouping.
	NoClustering bool
	// NoLoadBalance skips Phase 3 (the migration of VCPUs away from
	// unschedulable cores), retrying Phase 1 with a new permutation
	// instead.
	NoLoadBalance bool
	// NoResourceGrowth replaces Phase 2's demand-driven partition grants
	// with an even split of all partitions across the cores.
	NoResourceGrowth bool
}

func (cfg HyperConfig) withDefaults(n int) HyperConfig {
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 10
	}
	if cfg.Clusters <= 0 {
		cfg.Clusters = 3
	}
	if cfg.Clusters > n && n > 0 {
		cfg.Clusters = n
	}
	if cfg.MaxBalanceRounds <= 0 {
		cfg.MaxBalanceRounds = 16
	}
	return cfg
}

// coreState is a core's working assignment during the search.
type coreState struct {
	vcpus []*model.VCPU
	cache int
	bw    int

	// memoUtil caches util(), memoMoreCache utilMoreCache() and memoMoreBW
	// utilMoreBW(): Phase 2 and Phase 3 (and online admission) re-evaluate
	// each core's utilization, and the price of one more partition, many
	// times between mutations, and each evaluation walks every hosted VCPU.
	// Any mutation of vcpus, cache or bw must go through touch() to
	// invalidate all three.
	memoUtil, memoMoreCache, memoMoreBW    float64
	memoValid, moreCacheValid, moreBWValid bool
}

// touch invalidates the memoized utilizations after a mutation.
func (cs *coreState) touch() {
	cs.memoValid, cs.moreCacheValid, cs.moreBWValid = false, false, false
}

// util returns the core's total VCPU bandwidth under its current partition
// allocation; +Inf entries (existing-CSA infeasible allocations) propagate.
func (cs *coreState) util() float64 {
	if !cs.memoValid {
		cs.memoUtil = cs.utilAt(cs.cache, cs.bw)
		cs.memoValid = true
	}
	return cs.memoUtil
}

// utilMoreCache returns the core's bandwidth with one more cache
// partition, utilAt(cache+1, bw).
func (cs *coreState) utilMoreCache() float64 {
	if !cs.moreCacheValid {
		cs.memoMoreCache = cs.utilAt(cs.cache+1, cs.bw)
		cs.moreCacheValid = true
	}
	return cs.memoMoreCache
}

// utilMoreBW returns the core's bandwidth with one more bandwidth
// partition, utilAt(cache, bw+1).
func (cs *coreState) utilMoreBW() float64 {
	if !cs.moreBWValid {
		cs.memoMoreBW = cs.utilAt(cs.cache, cs.bw+1)
		cs.moreBWValid = true
	}
	return cs.memoMoreBW
}

// grant gives the core one more cache or bandwidth partition. Its new
// util() is the candidate it was priced at — the same sum over the same
// VCPUs — so that value is kept instead of re-summed.
func (cs *coreState) grant(isCache bool) {
	var u float64
	if isCache {
		u = cs.utilMoreCache()
		cs.cache++
	} else {
		u = cs.utilMoreBW()
		cs.bw++
	}
	cs.touch()
	cs.memoUtil, cs.memoValid = u, true
}

// utilAt evaluates the core's bandwidth under a hypothetical allocation:
// the in-order sum of every hosted VCPU's Bandwidth(cache, bw). The cell's
// offset is computed once, from the first VCPU's budget table, and read
// from every table of that shape; a table of another shape goes through
// Bandwidth, so it adds the same value or panics the same way.
func (cs *coreState) utilAt(cache, bw int) float64 {
	if len(cs.vcpus) == 0 {
		return 0
	}
	first := cs.vcpus[0].Budget
	off := first.Offset(cache, bw)
	var u float64
	for _, v := range cs.vcpus {
		if v.Budget.SameShape(first) {
			u += v.Budget.AtOffset(off) / v.Period
		} else {
			u += v.Bandwidth(cache, bw)
		}
	}
	return u
}

const schedEps = 1e-9

func schedulable(u float64) bool { return u <= 1+schedEps }

// HyperLevel maps VCPUs onto cores and allocates cache/BW partitions per
// the heuristic of Section 4.3: it tries m = 1..M cores; for each m it
// clusters VCPUs by slowdown similarity and repeats (Phase 1) packing under
// a random cluster permutation, (Phase 2) incremental resource allocation,
// and (Phase 3) load balancing, until the system is schedulable or the
// iteration budget is exhausted. It returns model.ErrNotSchedulable when no
// feasible allocation is found.
//
// An attempt is a pure function of m and its permutation, and with at most
// a few clusters most permutations are drawn more than once per m. So each
// failed attempt's outcome is kept for the rest of its m (see
// failedAttempt), and a permutation drawn again replays it: the same fail
// cause, effort counters and Phase 2-3 decisions, with no Phase 1-3 run.
// The random draws, counters and decision stream are those of a search
// that runs every attempt.
func HyperLevel(vcpus []*model.VCPU, plat model.Platform, cfg HyperConfig, rng *rngutil.RNG) (*model.Allocation, error) {
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	if len(vcpus) == 0 {
		return &model.Allocation{Platform: plat, Schedulable: true}, nil
	}
	cfg = cfg.withDefaults(len(vcpus))
	groups, err := hyperGroups(vcpus, plat, cfg, rng)
	if err != nil {
		return nil, err
	}
	rec := cfg.Metrics
	prov := cfg.Provenance

	var scratch packScratch
	memo := make([]failedAttempt, 0, cfg.MaxIters) // the failed attempts at the current m
	var attempts int
	var cpuN, cacheN, bwN int // how often each resource bound a failed attempt
	mStart := 1
	if cfg.MinCores > mStart {
		mStart = cfg.MinCores
	}
	for m := mStart; m <= plat.M; m++ {
		if plat.Cmin*m > plat.C || plat.Bmin*m > plat.B {
			break // not enough partitions to give every core its minimum
		}
		rec.Inc(MetricMTried)
		memo = memo[:0]
		for iter := 0; iter < cfg.MaxIters; iter++ {
			if cfg.Ctx != nil {
				if err := cfg.Ctx.Err(); err != nil {
					return nil, fmt.Errorf("alloc: search canceled after %d attempts: %w", attempts, err)
				}
			}
			perm := rng.Perm(len(groups))
			rec.Inc(MetricPermutations)
			sp1 := cfg.Span.Child(obs.StagePhase1)
			prev := findAttempt(memo, perm)
			var cores []*coreState
			if prev == nil {
				cores = packPhase1(groups, perm, m, &scratch)
			}
			sp1.SetInt("m", int64(m))
			sp1.SetInt("iter", int64(iter))
			if prev != nil {
				sp1.SetAttr("reused", "true")
			}
			sp1.End()
			rec.Inc(MetricPhase1Packing)
			attempts++
			var out failedAttempt
			if prev != nil {
				out = *prev
				out.replay(rec, prov)
			} else {
				ok, failed, replayable := runAttempt(cores, perm, plat, cfg)
				if ok {
					if prov.Enabled() {
						recordPlacements(prov, cores)
						prov.Record(provenance.Decision{
							Stage: provenance.StageHyper, Kind: provenance.KindAccept,
							Subject: "system", Target: "m=" + strconv.Itoa(m),
							Value: float64(m), Accepted: true,
							Reason: acceptReason(m, iter),
						})
					}
					return buildAllocation(cores, plat), nil
				}
				out = failed
				if replayable {
					memo = append(memo, out)
				}
			}
			if out.cause.cpu {
				cpuN++
			}
			if out.cause.cache {
				cacheN++
			}
			if out.cause.bw {
				bwN++
			}
			if prov.Enabled() {
				prov.Record(provenance.Decision{
					Stage: provenance.StageHyper, Kind: provenance.KindAttempt,
					Subject:  attemptSubject(m, iter),
					Value:    out.overload,
					Reason:   "packing attempt left unschedulable cores (value = total overload)",
					Violated: out.cause.violated(),
				})
			}
		}
	}
	return nil, searchExhausted(prov, attempts, cpuN, cacheN, bwN)
}

// hyperGroups inflates the VCPUs for overheads, screens out any VCPU that
// no allocation can schedule, and groups the rest by slowdown similarity
// (one group under NoClustering), each group sorted by decreasing
// reference bandwidth: the input of every packing attempt.
func hyperGroups(vcpus []*model.VCPU, plat model.Platform, cfg HyperConfig, rng *rngutil.RNG) ([][]*model.VCPU, error) {
	rec := cfg.Metrics
	prov := cfg.Provenance
	inflated := make([]*model.VCPU, len(vcpus))
	for i, v := range vcpus {
		inflated[i] = cfg.Overheads.InflateVCPU(v)
	}

	// Quick infeasibility screen: a VCPU whose bandwidth exceeds 1 even
	// under the full allocation can never be scheduled.
	for _, v := range inflated {
		if !schedulable(v.RefBandwidth()) {
			re := &RejectionError{
				Stage: provenance.StageHyper,
				Reason: fmt.Sprintf("VCPU %s needs bandwidth %.3f > 1 even under the full (C,B) allocation",
					v.ID, v.RefBandwidth()),
				Violated: []provenance.Resource{provenance.CPU},
			}
			if prov.Enabled() {
				prov.Record(provenance.Decision{
					Stage: provenance.StageHyper, Kind: provenance.KindReject,
					Subject: v.ID, Cache: plat.C, BW: plat.B,
					Value: v.RefBandwidth(), Reason: re.Reason, Violated: re.Violated,
				})
			}
			return nil, re
		}
	}

	var groups [][]*model.VCPU
	if cfg.NoClustering {
		groups = [][]*model.VCPU{append([]*model.VCPU(nil), inflated...)}
	} else {
		points, dim := slowdownPoints(len(inflated), func(i int) *model.ResourceTable { return inflated[i].Budget })
		clustering := kmeans.Cluster(*points, dim, cfg.Clusters, rng)
		pointsPool.Put(points)
		rec.Inc(MetricKMeansRuns)
		rec.Add(MetricKMeansIters, int64(clustering.Iterations))
		groups = make([][]*model.VCPU, clustering.K)
		for i, c := range clustering.Assign {
			groups[c] = append(groups[c], inflated[i])
		}
	}
	// Within each cluster, sort by decreasing reference utilization once.
	for _, g := range groups {
		sortDesc(g, (*model.VCPU).RefBandwidth, func(a, b *model.VCPU) int { return cmp.Compare(a.Index, b.Index) })
	}
	return groups, nil
}

// searchExhausted records and returns the rejection of a search whose
// every attempt failed.
func searchExhausted(prov *provenance.Recorder, attempts, cpuN, cacheN, bwN int) error {
	re := &RejectionError{
		Stage:    provenance.StageHyper,
		Reason:   fmt.Sprintf("no feasible packing in %d attempts (cpu-bound %d, cache-starved %d, bw-starved %d)", attempts, cpuN, cacheN, bwN),
		Violated: rankViolated(cpuN, cacheN, bwN),
	}
	if prov.Enabled() {
		prov.Record(provenance.Decision{
			Stage: provenance.StageHyper, Kind: provenance.KindReject,
			Subject: "system", Reason: re.Reason, Violated: re.Violated,
		})
	}
	return re
}

// failedAttempt is the outcome of a failed packing attempt at one m, kept
// so that the same permutation drawn again at that m replays it: the
// attempt is a pure function of (m, permutation). The decisions its
// Phases 2 and 3 recorded are [from, to) of the provenance stream.
type failedAttempt struct {
	perm     []int
	cause    failCause
	overload float64 // totalOverload of the final cores; set only with provenance
	effort   attemptEffort
	from, to int
}

// runAttempt runs Phases 2 and 3 on the Phase 1 packing cores made under
// perm, and adds their effort to cfg.Metrics. It reports success; on
// failure it returns the attempt's outcome, and whether a later draw of
// perm may replay it. It may not when the provenance recorder, shared
// with another writer, grew by more than the attempt's own decisions.
func runAttempt(cores []*coreState, perm []int, plat model.Platform, cfg HyperConfig) (ok bool, out failedAttempt, replayable bool) {
	prov := cfg.Provenance
	from := prov.Len()
	var effort attemptEffort
	ok, cause := allocateAndBalance(cores, plat, cfg, &effort)
	effort.flush(cfg.Metrics)
	if ok {
		return true, failedAttempt{}, false
	}
	out = failedAttempt{perm: perm, cause: cause, effort: effort, from: from, to: prov.Len()}
	if prov.Enabled() {
		out.overload = totalOverload(cores)
	}
	return false, out, out.to-out.from == effort.decisions
}

// replay adds the attempt's effort to rec and re-records its Phase 2-3
// decisions in prov, as running it again would.
func (a *failedAttempt) replay(rec *metrics.Recorder, prov *provenance.Recorder) {
	a.effort.flush(rec)
	prov.RecordRepeat(a.from, a.to)
}

// findAttempt returns the attempt of memo made under perm, nil if none.
func findAttempt(memo []failedAttempt, perm []int) *failedAttempt {
	for i := range memo {
		if slices.Equal(memo[i].perm, perm) {
			return &memo[i]
		}
	}
	return nil
}

// effortCounter indexes attemptEffort's counters.
type effortCounter int

const (
	effortPhase2Calls effortCounter = iota
	effortPhase2Attempts
	effortPhase2Grants
	effortPhase3Rounds
	effortPhase3Migrations
	numEffortCounters
)

// effortMetrics names the metric each effortCounter adds to.
var effortMetrics = [numEffortCounters]string{
	MetricPhase2Calls, MetricPhase2Attempts, MetricPhase2Grants,
	MetricPhase3Rounds, MetricPhase3Migrations,
}

// attemptEffort is the search effort of one attempt's Phases 2 and 3,
// counted by the attempt and added to the metrics recorder when it ends.
// Counting it locally keeps it the attempt's own when sweep workers share
// one recorder, and lets a replay add the same effort again.
type attemptEffort struct {
	n [numEffortCounters]int64
	// touched marks every counter the attempt added to, zero adds
	// included: an add registers its counter (metrics.Recorder.Add), and
	// a replay registers the same ones.
	touched [numEffortCounters]bool
	// decisions counts the provenance decisions the attempt recorded.
	decisions int
}

func (e *attemptEffort) add(c effortCounter, n int64) {
	e.n[c] += n
	e.touched[c] = true
}

// flush adds the effort to rec.
func (e *attemptEffort) flush(rec *metrics.Recorder) {
	if rec == nil {
		return
	}
	for c, n := range e.n {
		if e.touched[c] {
			rec.Add(effortMetrics[c], n)
		}
	}
}

// recordPlacements emits one place decision per VCPU of a successful
// packing, capturing the final core map and partition context.
func recordPlacements(prov *provenance.Recorder, cores []*coreState) {
	for i, cs := range cores {
		for _, v := range cs.vcpus {
			prov.Record(provenance.Decision{
				Stage: provenance.StageHyper, Kind: provenance.KindPlace,
				Subject: v.ID, Target: coreName(i),
				Cache: cs.cache, BW: cs.bw,
				Value: v.Bandwidth(cs.cache, cs.bw), Accepted: true,
				Reason: "final placement (value = VCPU bandwidth under the core's partitions)",
			})
		}
	}
}

// packScratch is the reusable working memory of packPhase1: one HyperLevel
// search runs up to MaxIters * M packings, and without the scratch every
// one of them allocated fresh core states and a load vector. buildAllocation
// copies the per-core VCPU slices, so reusing the backing arrays across
// iterations is safe.
type packScratch struct {
	states  []coreState
	cores   []*coreState
	refLoad []float64
}

func (s *packScratch) reset(m int) ([]*coreState, []float64) {
	if cap(s.states) < m {
		s.states = make([]coreState, m)
		s.cores = make([]*coreState, m)
		s.refLoad = make([]float64, m)
	}
	s.states = s.states[:m]
	s.cores = s.cores[:m]
	s.refLoad = s.refLoad[:m]
	for i := range s.states {
		s.states[i].vcpus = s.states[i].vcpus[:0]
		s.states[i].cache, s.states[i].bw = 0, 0
		s.states[i].touch()
		s.cores[i] = &s.states[i]
		s.refLoad[i] = 0
	}
	return s.cores, s.refLoad
}

// packPhase1 packs VCPUs onto m cores: clusters are visited in permutation
// order, VCPUs within a cluster in decreasing reference utilization, each
// placed on the core with the smallest total reference utilization so that
// all cores end up with similar loads.
func packPhase1(groups [][]*model.VCPU, perm []int, m int, scratch *packScratch) []*coreState {
	cores, refLoad := scratch.reset(m)
	for _, g := range perm {
		for _, v := range groups[g] {
			best := 0
			for c := 1; c < m; c++ {
				if refLoad[c] < refLoad[best] {
					best = c
				}
			}
			cores[best].vcpus = append(cores[best].vcpus, v)
			cores[best].touch()
			refLoad[best] += v.RefBandwidth()
		}
	}
	return cores
}

// allocateAndBalance runs Phase 2 (resource allocation) and Phase 3 (load
// balancing) alternately until the system is schedulable, balancing stops
// helping, or the round budget is exhausted. It reports success; on
// success the cores hold their final VCPU and partition assignments, and
// on failure the cause classifies the binding resources of the last
// Phase 2 failure. The attempt's effort is counted into effort.
func allocateAndBalance(cores []*coreState, plat model.Platform, cfg HyperConfig, effort *attemptEffort) (bool, failCause) {
	prov := cfg.Provenance
	var cause failCause
	runPhase2 := func() bool {
		effort.add(effortPhase2Calls, 1)
		sp2 := cfg.Span.Child(obs.StagePhase2)
		var ok bool
		// A direct call, not one through a func value, keeps effort off
		// the heap.
		if cfg.NoResourceGrowth {
			ok, cause = allocateEven(cores, plat)
		} else {
			ok, cause = allocatePhase2(cores, plat, effort, prov)
		}
		sp2.End()
		return ok
	}
	if runPhase2() {
		return true, failCause{}
	}
	if cfg.NoLoadBalance {
		return false, cause
	}
	prevOverload := totalOverload(cores)
	for round := 0; round < cfg.MaxBalanceRounds; round++ {
		effort.add(effortPhase3Rounds, 1)
		sp3 := cfg.Span.Child(obs.StagePhase3)
		moved := balancePhase3(cores, effort, prov)
		sp3.End()
		if !moved {
			return false, cause // no migration possible: no benefit in balancing
		}
		if runPhase2() {
			return true, failCause{}
		}
		over := totalOverload(cores)
		if over >= prevOverload-schedEps {
			return false, cause // balancing no longer helps
		}
		prevOverload = over
	}
	return false, cause
}

// allocateEven is the NoResourceGrowth ablation: every core receives an
// equal share of the partitions regardless of demand.
func allocateEven(cores []*coreState, plat model.Platform) (bool, failCause) {
	cache := plat.C / len(cores)
	bw := plat.B / len(cores)
	if cache < plat.Cmin || bw < plat.Bmin {
		return false, failCause{cache: cache < plat.Cmin, bw: bw < plat.Bmin}
	}
	ok := true
	var cause failCause
	for _, cs := range cores {
		cs.cache, cs.bw = cache, bw
		cs.touch()
		if !schedulable(cs.util()) {
			ok = false
			cause = cause.or(coreFailCause(cs, plat))
		}
	}
	if ok {
		cause = failCause{}
	}
	return ok, cause
}

// allocatePhase2 distributes cache and BW partitions: every core starts at
// (Cmin, Bmin); while some core is unschedulable and spare partitions
// remain, the unschedulable core with the highest utilization reduction
// from one extra partition (cache or BW, whichever helps it more) receives
// that partition. It reports whether all cores became schedulable; on
// failure the cause classifies every still-unschedulable core.
func allocatePhase2(cores []*coreState, plat model.Platform, effort *attemptEffort, prov *provenance.Recorder) (bool, failCause) {
	for _, cs := range cores {
		cs.cache, cs.bw = plat.Cmin, plat.Bmin
		cs.touch()
	}
	spareCache := plat.C - plat.Cmin*len(cores)
	spareBW := plat.B - plat.Bmin*len(cores)
	if spareCache < 0 || spareBW < 0 {
		return false, failCause{cache: spareCache < 0, bw: spareBW < 0}
	}

	var attempts, grants int64
	defer func() {
		effort.add(effortPhase2Attempts, attempts)
		effort.add(effortPhase2Grants, grants)
	}()
	for {
		allOK := true
		bestCore, bestIsCache := -1, false
		bestGain := 0.0
		for i, cs := range cores {
			u := cs.util()
			if schedulable(u) {
				continue
			}
			allOK = false
			if spareCache > 0 && cs.cache < plat.C {
				attempts++
				if g := gain(u, cs.utilMoreCache()); g > bestGain {
					bestGain, bestCore, bestIsCache = g, i, true
				}
			}
			if spareBW > 0 && cs.bw < plat.B {
				attempts++
				if g := gain(u, cs.utilMoreBW()); g > bestGain {
					bestGain, bestCore, bestIsCache = g, i, false
				}
			}
		}
		if allOK {
			return true, failCause{}
		}
		if bestCore < 0 || bestGain <= schedEps {
			// No partition helps any unschedulable core: classify each of
			// them so the rejection names every binding resource.
			var cause failCause
			for _, cs := range cores {
				if !schedulable(cs.util()) {
					cause = cause.or(coreFailCause(cs, plat))
				}
			}
			return false, cause
		}
		grants++
		if prov.Enabled() {
			kind := provenance.Cache
			if !bestIsCache {
				kind = provenance.BW
			}
			cs := cores[bestCore]
			effort.decisions++
			prov.Record(provenance.Decision{
				Stage: provenance.StagePhase2, Kind: provenance.KindGrant,
				Subject: coreName(bestCore), Target: string(kind),
				Cache: cs.cache, BW: cs.bw,
				Value: bestGain, Accepted: true,
				Reason: grantReason(bestGain),
			})
		}
		cores[bestCore].grant(bestIsCache)
		if bestIsCache {
			spareCache--
		} else {
			spareBW--
		}
	}
}

// gain returns the utilization reduction achieved by an extra partition,
// treating a transition from an infeasible (+Inf) to a finite utilization
// as a very large gain so that such cores are prioritized.
func gain(old, new_ float64) float64 {
	if math.IsInf(old, 1) {
		if math.IsInf(new_, 1) {
			return 0
		}
		return 1e18 - new_
	}
	return old - new_
}

// balancePhase3 migrates one VCPU from each unschedulable core to the
// schedulable core that will have the smallest utilization after the
// migration. It reports whether at least one migration happened.
func balancePhase3(cores []*coreState, effort *attemptEffort, prov *provenance.Recorder) bool {
	var migrations int64
	var dsts []*coreState // reused by every pickMigration call in this pass
	for si, src := range cores {
		for !schedulable(src.util()) {
			var vi int
			var dst *coreState
			vi, dst, dsts = pickMigration(cores, src, dsts)
			if vi < 0 {
				break // nowhere to move anything
			}
			v := src.vcpus[vi]
			src.vcpus = append(src.vcpus[:vi], src.vcpus[vi+1:]...)
			src.touch()
			dst.vcpus = append(dst.vcpus, v)
			dst.touch()
			migrations++
			if prov.Enabled() {
				di := coreIndexOf(cores, dst)
				effort.decisions++
				prov.Record(provenance.Decision{
					Stage: provenance.StagePhase3, Kind: provenance.KindMigrate,
					Subject: v.ID, Target: coreName(si) + " -> " + coreName(di),
					Cache: dst.cache, BW: dst.bw,
					Value: dst.util(), Accepted: true,
					Reason: "migrated off an overloaded core to the least-utilized schedulable core",
				})
			}
		}
	}
	effort.add(effortPhase3Migrations, migrations)
	return migrations > 0
}

// grantReason renders a Phase 2 grant's reason, byte for byte what
// fmt.Sprintf("best utilization gain %.4g among unschedulable cores", gain)
// prints, without fmt's reflection: grants are most of a run's decisions.
func grantReason(gain float64) string {
	var buf [64]byte
	b := append(buf[:0], "best utilization gain "...)
	b = strconv.AppendFloat(b, gain, 'g', 4, 64)
	return string(append(b, " among unschedulable cores"...))
}

// attemptSubject renders a Phase 1 attempt's subject, byte for byte what
// fmt.Sprintf("m=%d iter=%d", m, iter) prints, without fmt's reflection.
func attemptSubject(m, iter int) string {
	var buf [48]byte
	b := append(buf[:0], "m="...)
	b = strconv.AppendInt(b, int64(m), 10)
	b = append(b, " iter="...)
	return string(strconv.AppendInt(b, int64(iter), 10))
}

// acceptReason renders the accept decision's reason, byte for byte what
// fmt.Sprintf("schedulable on %d cores at iteration %d", m, iter) prints.
func acceptReason(m, iter int) string {
	var buf [80]byte
	b := append(buf[:0], "schedulable on "...)
	b = strconv.AppendInt(b, int64(m), 10)
	b = append(b, " cores at iteration "...)
	return string(strconv.AppendInt(b, int64(iter), 10))
}

// coreNames holds the provenance names "core 0" .. "core 63", built once:
// grant, place and migrate decisions name a core each.
var coreNames = func() []string {
	names := make([]string, 64)
	for i := range names {
		names[i] = "core " + strconv.Itoa(i)
	}
	return names
}()

// coreName returns "core <i>", from the table when i is in it.
func coreName(i int) string {
	if i >= 0 && i < len(coreNames) {
		return coreNames[i]
	}
	return "core " + strconv.Itoa(i)
}

// coreIndexOf returns the index of cs in cores (-1 if absent); only used
// on the provenance path, where readable core names beat pointer identity.
func coreIndexOf(cores []*coreState, cs *coreState) int {
	for i, c := range cores {
		if c == cs {
			return i
		}
	}
	return -1
}

// pickMigration chooses which VCPU of src to migrate and its destination:
// the largest-bandwidth VCPU on src, placed onto the schedulable core
// whose post-migration utilization is smallest. It returns (-1, nil) when
// no schedulable destination can accept any VCPU while staying
// schedulable. The VCPU is the first, in decreasing reference bandwidth
// with equal bandwidths in src order (the order a stable sort gives), that
// has a destination. Most calls move nothing — often no other core is
// schedulable at all — so rather than sort the candidates and try them in
// turn, one pass in src order keeps the largest-bandwidth VCPU that has a
// destination, replacing it only on a strictly larger bandwidth; for
// bandwidths without NaN that is the same VCPU. The destination scratch
// slice is returned so the caller can thread it through repeated calls.
func pickMigration(cores []*coreState, src *coreState, scratch []*coreState) (int, *coreState, []*coreState) {
	dsts := scratch[:0]
	for _, dst := range cores {
		if dst != src && schedulable(dst.util()) {
			dsts = append(dsts, dst)
		}
	}
	if len(dsts) == 0 {
		return -1, nil, dsts
	}
	pick, pickRef := -1, 0.0
	var pickDst *coreState
	for vi, v := range src.vcpus {
		var best *coreState
		bestUtil := math.Inf(1)
		for _, dst := range dsts {
			after := dst.util() + v.Bandwidth(dst.cache, dst.bw)
			if schedulable(after) && after < bestUtil {
				best, bestUtil = dst, after
			}
		}
		if best == nil {
			continue
		}
		if ref := v.RefBandwidth(); pick < 0 || ref > pickRef {
			pick, pickDst, pickRef = vi, best, ref
		}
	}
	return pick, pickDst, dsts
}

// sortDesc stable-sorts items by decreasing key, breaking exact key ties
// with tie (negative puts a first). Each key is computed once, where
// sort.SliceStable with the equivalent less function recomputes both keys
// on every compare; for keys without NaN the order is the same.
func sortDesc[T any](items []T, key func(T) float64, tie func(a, b T) int) {
	type keyed struct {
		key  float64
		item T
	}
	ks := make([]keyed, len(items))
	for i, it := range items {
		ks[i] = keyed{key(it), it}
	}
	slices.SortStableFunc(ks, func(a, b keyed) int {
		if c := cmp.Compare(b.key, a.key); c != 0 {
			return c
		}
		return tie(a.item, b.item)
	})
	for i, k := range ks {
		items[i] = k.item
	}
}

// totalOverload sums each core's utilization excess over 1, the progress
// metric for the balancing loop. Infinite utilizations are clamped so the
// metric stays comparable.
func totalOverload(cores []*coreState) float64 {
	var over float64
	for _, cs := range cores {
		u := cs.util()
		if math.IsInf(u, 1) {
			u = 1e18
		}
		if u > 1 {
			over += u - 1
		}
	}
	return over
}

// buildAllocation freezes the search state into a model.Allocation.
func buildAllocation(cores []*coreState, plat model.Platform) *model.Allocation {
	out := &model.Allocation{Platform: plat, Schedulable: true}
	for i, cs := range cores {
		out.Cores = append(out.Cores, &model.CoreAlloc{
			Core:  i,
			Cache: cs.cache,
			BW:    cs.bw,
			VCPUs: append([]*model.VCPU(nil), cs.vcpus...),
		})
	}
	return out
}
