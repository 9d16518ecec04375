package main

import (
	"encoding/json"
	"fmt"

	"vc2m/internal/alloc"
	"vc2m/internal/csa"
	"vc2m/internal/experiment"
	"vc2m/internal/metrics"
	"vc2m/internal/model"
	"vc2m/internal/obs"
	"vc2m/internal/provenance"
	"vc2m/internal/report"
	"vc2m/internal/rngutil"
	"vc2m/internal/server"
	"vc2m/internal/workload"

	"vc2m"
)

// Span names of the benchmark's own layer spans. Layers the program
// already names reuse its obs.Stage* constants.
const (
	spanRequest  = "request"
	spanSubmit   = "server.submit"
	spanWait     = "server.wait"
	spanFetch    = "server.fetch"
	spanReplay   = "replay"
	spanDecode   = "model.decode"
	spanBuild    = "report.build"
	spanEncode   = "report.encode"
	spanSolution = "experiment.solution."
)

// solutionSlugs names the paper's five solutions, in alloc.PaperSolutions
// order.
var solutionSlugs = []string{"baseline", "evenly-partition", "heuristic-existing", "heuristic-overheadfree", "heuristic-flattening"}

// replayer runs submissions in-process, calling each layer's public
// function in the order internal/server runs them, and returns the report
// bytes the server serves for the same submission. Under a nil parent span
// it is the reference the served bytes are checked against; under a
// "replay" root its spans time every layer from outside the program.
//
// It is not safe for concurrent use.
type replayer struct {
	// rec, when non-nil, collects the program's own search-effort counters.
	rec *metrics.Recorder
	// derives counts csa re-derivations; allocs and accepted count
	// heuristic allocations and the schedulable ones.
	derives, allocs, accepted int64
	// mismatches lists re-derived csa interfaces that differ from
	// alloc.VMLevel's.
	mismatches []string
	// samples collects systems for the obs overhead measurement: every
	// sampleStride-th heuristic allocation, at most sampleChecked of them.
	samples      []allocSample
	sampleStride int
	seen         int
}

type allocSample struct {
	sys  *model.System
	mode alloc.CSAMode
}

// parseMode maps a wire mode name to the allocator mode and its report
// name, as internal/server does.
func parseMode(name string) (alloc.CSAMode, string, error) {
	switch name {
	case "", "flattening":
		return alloc.Flattening, "flattening", nil
	case "overheadfree", "overhead-free":
		return alloc.OverheadFree, "overheadfree", nil
	case "existing":
		return alloc.ExistingCSA, "existing", nil
	}
	return 0, "", fmt.Errorf("unknown mode %q", name)
}

// decode is the server's request decoding: JSON into SubmitRequest, the
// churn endpoint's fill-in of kind and base run, and Validate.
func decode(parent *obs.Span, body []byte, baseID string) (server.SubmitRequest, error) {
	sp := parent.Child(spanDecode)
	defer sp.End()
	var req server.SubmitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return req, fmt.Errorf("decoding submission: %w", err)
	}
	if baseID != "" {
		req.Kind = server.KindChurn
		if req.Churn == nil {
			req.Churn = &server.ChurnSpec{}
		}
		req.Churn.BaseRun = baseID
	}
	return req, req.Validate()
}

// encode builds and marshals the report document.
func encode(parent *obs.Span, build func() *report.Document) ([]byte, error) {
	sp := parent.Child(spanBuild)
	doc := build()
	sp.End()
	sp = parent.Child(spanEncode)
	defer sp.End()
	return report.Marshal(doc)
}

// run replays a KindRun submission. It returns the report bytes and, when
// the allocation was accepted, the allocation.
func (rp *replayer) run(parent *obs.Span, body []byte) ([]byte, *model.Allocation, error) {
	req, err := decode(parent, body, "")
	if err != nil {
		return nil, nil, err
	}
	mode, modeName, err := parseMode(req.Mode)
	if err != nil {
		return nil, nil, err
	}
	sys := req.System
	prov := provenance.New()
	a, vcpus, aerr := rp.allocate(parent, sys, mode, rngutil.New(req.Seed), prov)
	rp.rederive(parent, vcpus, sys.Platform)
	title := req.Title
	if title == "" {
		title = fmt.Sprintf("vc2m-server %s run (seed %d)", modeName, req.GenSeed)
	}
	in := report.RunInput{Title: title, Seed: req.GenSeed, Mode: modeName, Platform: sys.Platform, Provenance: prov}
	if aerr != nil {
		in.Rejection = rejection(aerr)
	} else {
		in.Allocation = a
		if req.SimulateMs > 0 {
			sp := parent.Child(obs.StageHypersim)
			res, err := vc2m.Simulate(a, req.SimulateMs, vc2m.SimOptions{RecordTrace: true, Metrics: rp.rec})
			sp.End()
			if err != nil {
				return nil, nil, err
			}
			if res.Missed > 0 {
				return nil, nil, fmt.Errorf("accepted allocation missed %d deadlines in hypersim", res.Missed)
			}
			in.Sim = res
		}
	}
	data, err := encode(parent, func() *report.Document { return report.BuildRun(in) })
	return data, in.Allocation, err
}

// allocate is alloc.Heuristic.Allocate split at its layer boundaries:
// alloc.VMLevel per VM, then alloc.HyperLevel on the same RNG stream, so
// the result equals the heuristic's. It also returns the VMLevel VCPUs for
// re-derivation.
func (rp *replayer) allocate(parent *obs.Span, sys *model.System, mode alloc.CSAMode, rng *rngutil.RNG, prov *provenance.Recorder) (*model.Allocation, []*model.VCPU, error) {
	rp.allocs++
	if rp.seen%max(rp.sampleStride, 1) == 0 && len(rp.samples) < sampleChecked {
		rp.samples = append(rp.samples, allocSample{sys: sys, mode: mode})
	}
	rp.seen++
	sp := parent.Child(obs.StageVMLevel)
	var vcpus []*model.VCPU
	for _, vm := range sys.VMs {
		vs, err := alloc.VMLevel(vm, sys.Platform, alloc.VMLevelConfig{Mode: mode, Metrics: rp.rec, Provenance: prov}, len(vcpus), rng)
		if err != nil {
			sp.End()
			return nil, vcpus, err
		}
		vcpus = append(vcpus, vs...)
	}
	sp.End()
	sp = parent.Child(obs.StageHyper)
	a, err := alloc.HyperLevel(vcpus, sys.Platform, alloc.HyperConfig{Metrics: rp.rec, Provenance: prov}, rng)
	sp.End()
	if err != nil {
		return nil, vcpus, err
	}
	rp.accepted++
	a.Solution = (&alloc.Heuristic{Mode: mode}).Name()
	return a, vcpus, nil
}

// rederive derives each VCPU's interface again straight from package csa
// and checks it equals the one alloc.VMLevel produced. alloc.vmlevel
// spans already contain this work; the csa.derive spans time it alone.
func (rp *replayer) rederive(parent *obs.Span, vcpus []*model.VCPU, plat model.Platform) {
	for _, v := range vcpus {
		sp := parent.Child(obs.StageCSADerive)
		var got *model.VCPU
		var err error
		switch {
		case v.SyncedRelease:
			got = csa.FlattenVCPU(v.Tasks[0], v.Index)
		case v.WellRegulated:
			got, err = csa.WellRegulatedVCPU(v.Tasks, v.Index)
		default:
			got, _, err = csa.ExistingVCPU(v.Tasks, v.Index, plat)
		}
		sp.End()
		rp.derives++
		if err != nil || !sameInterface(got, v) {
			rp.mismatches = append(rp.mismatches, fmt.Sprintf("csa re-derivation of %s differs from alloc.VMLevel's (err %v)", v.ID, err))
		}
	}
}

func sameInterface(a, b *model.VCPU) bool {
	if a.Period != b.Period { //vc2m:floateq re-derivation must reproduce the interface bit for bit
		return false
	}
	cmin, cmax, bmin, bmax := a.Budget.Bounds()
	if c2, c3, b2, b3 := b.Budget.Bounds(); c2 != cmin || c3 != cmax || b2 != bmin || b3 != bmax {
		return false
	}
	for c := cmin; c <= cmax; c++ {
		for bw := bmin; bw <= bmax; bw++ {
			if a.Budget.At(c, bw) != b.Budget.At(c, bw) { //vc2m:floateq re-derivation must reproduce the interface bit for bit
				return false
			}
		}
	}
	return true
}

// rejection is internal/server's translation of an allocator error into
// the report's rejection section.
func rejection(err error) *report.Rejection {
	rej := &report.Rejection{Reason: err.Error(), Violated: []string{"cpu"}}
	if re, ok := alloc.AsRejection(err); ok {
		rej.Stage = re.Stage
		rej.Violated = rej.Violated[:0]
		for _, r := range re.Violated {
			rej.Violated = append(rej.Violated, string(r))
		}
	}
	return rej
}

// churn replays a churn submission against base run baseID, whose
// accepted allocation is base: alloc.Incremental per event with seed
// Seed+i, then the report of the final layout.
func (rp *replayer) churn(parent *obs.Span, body []byte, baseID string, base *model.Allocation) ([]byte, error) {
	req, err := decode(parent, body, baseID)
	if err != nil {
		return nil, err
	}
	mode, modeName, err := parseMode(req.Mode)
	if err != nil {
		return nil, err
	}
	prov := provenance.New()
	cur := base
	for i, ev := range req.Churn.Events {
		sp := parent.Child(obs.StageIncremental)
		res, err := alloc.Incremental(cur, alloc.Delta{Arrivals: ev.Arrivals, Departures: ev.Departures},
			alloc.IncrementalConfig{Mode: mode, Metrics: rp.rec, Provenance: prov}, rngutil.New(req.Seed+int64(i)))
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("churn event %d: %w", i, err)
		}
		cur = res.Allocation
		var arrived []*model.VCPU
		for _, core := range cur.Cores {
			for _, v := range core.VCPUs {
				if contains(res.Admitted, v.VM) {
					arrived = append(arrived, v)
				}
			}
		}
		rp.rederive(parent, arrived, cur.Platform)
	}
	title := fmt.Sprintf("vc2m-server churn run (base %s, seed %d)", baseID, req.Seed)
	return encode(parent, func() *report.Document {
		return report.BuildRun(report.RunInput{
			Title: title, Seed: req.Seed, Mode: modeName, Platform: cur.Platform,
			Allocation: cur, Provenance: prov,
		})
	})
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// sweep replays a sweep submission: one serial experiment.RunSchedulability
// over the paper's five solutions, each wrapped so its calls are timed as
// experiment.solution.<slug> spans. Per-taskset seeds are drawn per
// solution index, so running the solutions in separate sweeps would not
// replay the served sweep; wrapping keeps the report byte-identical.
func (rp *replayer) sweep(parent *obs.Span, body []byte) ([]byte, error) {
	req, err := decode(parent, body, "")
	if err != nil {
		return nil, err
	}
	spec := req.Sweep
	plat, err := model.PlatformByName(spec.Platform)
	if err != nil {
		return nil, err
	}
	dist := workload.Uniform
	if spec.Dist != "" {
		if dist, err = workload.ParseDistribution(spec.Dist); err != nil {
			return nil, err
		}
	}
	_, modeName, err := parseMode(req.Mode)
	if err != nil {
		return nil, err
	}
	sols := alloc.PaperSolutions()
	for i, s := range sols {
		if ms, ok := s.(alloc.MetricsSetter); ok {
			ms.SetMetrics(rp.rec)
		}
		sols[i] = &tracedSolution{Allocator: s, slug: solutionSlugs[i], rp: rp, parent: parent}
	}
	prov := provenance.New()
	res, err := experiment.RunSchedulability(experiment.SchedConfig{
		Platform: plat, Dist: dist,
		UtilMin: spec.UtilMin, UtilMax: spec.UtilMax, UtilStep: spec.UtilStep,
		TasksetsPerPoint: spec.TasksetsPerPoint, Seed: req.Seed,
		Solutions: sols, Provenance: prov,
	})
	if err != nil {
		return nil, err
	}
	title := fmt.Sprintf("vc2m-server sweep %s/%s (seed %d)", plat.Name, dist, req.Seed)
	return encode(parent, func() *report.Document {
		return report.BuildSweep(report.SweepInput{
			Title: title, Seed: req.Seed, Mode: modeName, Platform: plat,
			Sweep: res.ReportSweep(), Provenance: prov,
		})
	})
}

// tracedSolution times one paper solution's Allocate calls. The heuristic
// solutions run through replayer.allocate, so their layers show as child
// spans; the re-derivation check runs after the solution span ends.
type tracedSolution struct {
	alloc.Allocator
	slug   string
	rp     *replayer
	parent *obs.Span
}

func (s *tracedSolution) Allocate(sys *model.System, rng *rngutil.RNG) (*model.Allocation, error) {
	sp := s.parent.Child(spanSolution + s.slug)
	h, ok := s.Allocator.(*alloc.Heuristic)
	if !ok {
		a, err := s.Allocator.Allocate(sys, rng)
		sp.End()
		return a, err
	}
	a, vcpus, err := s.rp.allocate(sp, sys, h.Mode, rng, nil)
	sp.End()
	s.rp.rederive(s.parent, vcpus, sys.Platform)
	return a, err
}
