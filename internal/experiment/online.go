package experiment

import (
	"fmt"
	"strings"

	"vc2m/internal/alloc"
	"vc2m/internal/model"
	"vc2m/internal/rngutil"
	"vc2m/internal/workload"
)

// OnlineConfig parameterizes the online admission study: VMs arrive one at
// a time and each is either admitted onto the running allocation (no
// migration of placed VCPUs, partitions only grow) or rejected. The
// offline comparator applies the same greedy accept/skip policy but
// re-runs the full heuristic (with complete migration freedom) on every
// decision — isolating exactly what the online controller gives up by
// never moving placed VCPUs.
type OnlineConfig struct {
	// Platform for the study; zero value defaults to Platform A.
	Platform model.Platform
	// VMUtil is each arriving VM's reference utilization; zero defaults
	// to 0.35.
	VMUtil float64
	// Arrivals is the number of arriving VMs per trial; zero defaults
	// to 12.
	Arrivals int
	// Trials defaults to 10.
	Trials int
	// Seed makes the study reproducible.
	Seed int64
	// Parallel runs up to this many trials concurrently (0 or 1 = serial).
	// Results are identical for every worker count: each trial's RNG
	// stream is split off the root in trial order before the workers
	// start, every trial works on private state, and per-trial admission
	// counts are reduced in trial order.
	Parallel int
}

// OnlineResult summarizes the study.
type OnlineResult struct {
	Config OnlineConfig
	// OnlineAdmitted is the mean number of VMs admitted online.
	OnlineAdmitted float64
	// OfflineAdmitted is the mean number of VMs the greedy
	// re-allocation comparator places.
	OfflineAdmitted float64
}

// RunOnline executes the study. Each trial draws a stream of small VM
// workloads; the online controller admits greedily with alloc.Admit, the
// offline comparator finds the longest schedulable prefix by re-running
// the full heuristic.
func RunOnline(cfg OnlineConfig) (*OnlineResult, error) {
	if cfg.Platform.M == 0 {
		cfg.Platform = model.PlatformA
	}
	if cfg.VMUtil == 0 { //vc2m:floateq unset-config sentinel
		cfg.VMUtil = 0.35
	}
	if cfg.Arrivals == 0 {
		cfg.Arrivals = 12
	}
	if cfg.Trials == 0 {
		cfg.Trials = 10
	}

	// Each trial owns one RNG stream, split off the root in trial order.
	// (Trials used to interleave decision-dependent splits on one shared
	// root, which made the stream — and thus the workloads — depend on how
	// many admission decisions earlier trials took; per-trial streams make
	// every trial self-contained and order-independent.)
	root := rngutil.New(cfg.Seed)
	type trialResult struct {
		online, offline int
		err             error
	}
	rngs := make([]*rngutil.RNG, cfg.Trials)
	for i := range rngs {
		rngs[i] = root.Split()
	}
	results := make([]trialResult, cfg.Trials)
	runIndexed(cfg.Trials, cfg.Parallel, func(trial int) {
		online, offline, err := runOnlineTrial(cfg, trial, rngs[trial])
		results[trial] = trialResult{online: online, offline: offline, err: err}
	})

	var onlineSum, offlineSum float64
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		onlineSum += float64(r.online)
		offlineSum += float64(r.offline)
	}
	return &OnlineResult{
		Config:          cfg,
		OnlineAdmitted:  onlineSum / float64(cfg.Trials),
		OfflineAdmitted: offlineSum / float64(cfg.Trials),
	}, nil
}

// runOnlineTrial draws one arrival stream and plays it through the online
// controller and the offline comparator. All state — the RNG stream, the
// heuristic, the working allocations — is private to the trial, so trials
// are safe to run concurrently and their outcomes do not depend on
// execution order.
func runOnlineTrial(cfg OnlineConfig, trial int, rng *rngutil.RNG) (online, offline int, err error) {
	stream := make([]*model.VM, cfg.Arrivals)
	for i := range stream {
		sys, err := workload.Generate(workload.Config{
			Platform:      cfg.Platform,
			TargetRefUtil: cfg.VMUtil,
			Dist:          workload.Uniform,
			NumVMs:        1,
		}, rng.Split())
		if err != nil {
			return 0, 0, err
		}
		vm := sys.VMs[0]
		vm.ID = fmt.Sprintf("trial%d-vm%d", trial, i)
		for _, t := range vm.Tasks {
			t.VM = vm.ID
			t.ID = vm.ID + "/" + t.ID
		}
		stream[i] = vm
	}

	// Online: start from the first VM's offline allocation, then admit
	// greedily.
	h := &alloc.Heuristic{Mode: alloc.Flattening}
	var current *model.Allocation
	for _, vm := range stream {
		if current == nil {
			sys := &model.System{Platform: cfg.Platform, VMs: []*model.VM{vm}}
			a, err := h.Allocate(sys, rng.Split())
			if err != nil {
				break
			}
			current = a
			online++
			continue
		}
		next, err := alloc.Admit(current, vm, alloc.Flattening, rng.Split(), nil)
		if err != nil {
			continue // rejected; later smaller VMs may still fit
		}
		current = next
		online++
	}

	// Offline comparator: same greedy accept/skip policy, but every
	// decision re-allocates all accepted VMs from scratch.
	var accepted []*model.VM
	for _, vm := range stream {
		cand := append(append([]*model.VM(nil), accepted...), vm)
		sys := &model.System{Platform: cfg.Platform, VMs: cand}
		if _, err := h.Allocate(sys, rng.Split()); err != nil {
			continue
		}
		accepted = cand
		offline++
	}
	return online, offline, nil
}

// Table renders the study.
func (r *OnlineResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "online admission vs offline re-allocation (platform %s, VM util %.2f, %d arrivals)\n",
		r.Config.Platform.Name, r.Config.VMUtil, r.Config.Arrivals)
	fmt.Fprintf(&b, "%-24s %6.2f VMs\n", "online (Admit)", r.OnlineAdmitted)
	fmt.Fprintf(&b, "%-24s %6.2f VMs\n", "offline (re-allocate)", r.OfflineAdmitted)
	if r.OfflineAdmitted > 0 {
		fmt.Fprintf(&b, "%-24s %6.1f%%\n", "online efficiency", 100*r.OnlineAdmitted/r.OfflineAdmitted)
	}
	return b.String()
}
