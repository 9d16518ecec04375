package bench

import (
	"fmt"

	"vc2m/internal/csa"
	"vc2m/internal/hypersim"
	"vc2m/internal/model"
	"vc2m/internal/timeunit"
)

// benchEventLoopAlloc builds the suite's fixed simulator workload: n
// flattened VCPUs spread over 4 cores at ~80% load (the shape of the
// repository's overhead experiments).
func benchEventLoopAlloc(n int) *model.Allocation {
	p := model.PlatformA
	perCore := make([][]*model.VCPU, 4)
	for i := 0; i < n; i++ {
		core := i % 4
		period := 10.0 * float64(int(1)<<uint(i%3))
		share := 0.8 / float64((n+3)/4)
		task := model.SimpleTask(fmt.Sprintf("t%d", i), p, period, period*share)
		task.VM = "vm"
		perCore[core] = append(perCore[core], csa.FlattenVCPU(task, i))
	}
	cores := make([]*model.CoreAlloc, 4)
	for c := range cores {
		cores[c] = &model.CoreAlloc{Core: c, Cache: 5, BW: 5, VCPUs: perCore[c]}
	}
	return &model.Allocation{Platform: p, Cores: cores, Schedulable: true}
}

// benchHypersimEvents measures the simulator's event-loop throughput in
// executed engine events per second.
func benchHypersimEvents(opts Options) (Result, error) {
	// 384 VCPUs over 4 cores: far past any served or paper workload, so
	// the per-core dispatch scan is a visible share of the event loop.
	vcpus := 384
	horizon := timeunit.FromMillis(2000)
	if opts.Quick {
		vcpus = 24
		horizon = timeunit.FromMillis(250)
	}
	a := benchEventLoopAlloc(vcpus)

	var res *hypersim.Result
	var runErr error
	secs := medianSeconds(opts.Runs, func() {
		if runErr != nil {
			return
		}
		var s *hypersim.Simulator
		if s, runErr = hypersim.New(a, hypersim.Config{}); runErr == nil {
			res = s.Run(horizon)
		}
	})
	if runErr != nil {
		return Result{}, runErr
	}
	return Result{
		Name:   "hypersim/event-loop",
		Metric: "events_per_sec",
		Value:  throughput(float64(res.EngineSteps), secs),
		Runs:   opts.Runs,
		Notes: fmt.Sprintf("%d VCPUs on 4 cores, %v horizon, %d engine events",
			vcpus, horizon, res.EngineSteps),
	}, nil
}
