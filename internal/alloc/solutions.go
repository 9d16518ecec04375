package alloc

import (
	"context"

	"vc2m/internal/metrics"
	"vc2m/internal/model"
	"vc2m/internal/obs"
	"vc2m/internal/provenance"
	"vc2m/internal/rngutil"
)

// Allocator is a complete allocation strategy: given a system, it computes
// the tasks-to-VCPUs mapping, the VCPUs-to-cores mapping and the per-core
// cache/BW partition counts, or reports the system unschedulable.
type Allocator interface {
	// Name returns the legend label used in the paper's figures.
	Name() string
	// Allocate computes an allocation. It returns model.ErrNotSchedulable
	// when the strategy finds no feasible allocation; any other error
	// indicates a precondition violation (e.g. non-harmonic periods for
	// the overhead-free analysis).
	Allocate(sys *model.System, rng *rngutil.RNG) (*model.Allocation, error)
}

// Heuristic is vC2M's allocator: the VM-level clustering/packing algorithm
// combined with the hypervisor-level three-phase heuristic, parameterized
// by the analysis used for VCPU budgets.
type Heuristic struct {
	// Mode selects the VM-level analysis.
	Mode CSAMode
	// VMLevel configures task clustering; the Mode field inside is
	// overridden by Mode.
	VMLevel VMLevelConfig
	// Hyper configures the hypervisor-level search.
	Hyper HyperConfig
	// Metrics, when non-nil, records search-effort counters across both
	// allocation levels (see the Metric* constants and the csa.Metric*
	// constants). Nil disables recording at no cost.
	Metrics *metrics.Recorder
	// Provenance, when non-nil, records the full decision stream across
	// both allocation levels (see package provenance). Nil disables
	// recording at no cost.
	Provenance *provenance.Recorder
	// Ctx, when non-nil, is polled between VMs and between hypervisor-
	// level packing attempts: a canceled context aborts the allocation
	// with the context's error instead of running the search to
	// completion. Nil disables the checks.
	//vc2m:ctxfield optional cancellation hook on a config struct; nil runs to completion
	Ctx context.Context
	// Span, when non-nil, is the parent under which the allocator opens
	// wall-clock stage spans: alloc.vmlevel and alloc.hyper children here,
	// csa.derive and alloc.phase1/2/3 grandchildren below. Nil disables
	// span recording at no cost; spans never influence the result.
	Span *obs.Span
}

// Name implements Allocator.
func (h *Heuristic) Name() string { return "Heuristic (" + h.Mode.String() + ")" }

// SetMetrics implements MetricsSetter.
func (h *Heuristic) SetMetrics(r *metrics.Recorder) { h.Metrics = r }

// SetContext implements ContextSetter.
func (h *Heuristic) SetContext(ctx context.Context) { h.Ctx = ctx }

// Allocate implements Allocator. A nil RNG falls back to a fixed seed, so
// the call is deterministic either way.
func (h *Heuristic) Allocate(sys *model.System, rng *rngutil.RNG) (*model.Allocation, error) {
	if rng == nil {
		rng = rngutil.New(0)
	}
	rec := h.Metrics
	rec.Inc(MetricAllocCalls)
	vmCfg := h.VMLevel
	vmCfg.Mode = h.Mode
	if rec != nil {
		vmCfg.Metrics = rec
	}
	hyCfg := h.Hyper
	if rec != nil {
		hyCfg.Metrics = rec
	}
	if h.Provenance != nil {
		vmCfg.Provenance = h.Provenance
		hyCfg.Provenance = h.Provenance
	}
	if h.Ctx != nil {
		hyCfg.Ctx = h.Ctx
	}
	vmSpan := h.Span.Child(obs.StageVMLevel)
	vmCfg.Span = vmSpan
	var vcpus []*model.VCPU
	for _, vm := range sys.VMs {
		if h.Ctx != nil {
			if err := h.Ctx.Err(); err != nil {
				vmSpan.End()
				return nil, err
			}
		}
		vs, err := VMLevel(vm, sys.Platform, vmCfg, len(vcpus), rng)
		if err != nil {
			vmSpan.End()
			return nil, err
		}
		vcpus = append(vcpus, vs...)
	}
	vmSpan.SetInt("vms", int64(len(sys.VMs)))
	vmSpan.SetInt("vcpus", int64(len(vcpus)))
	vmSpan.End()
	rec.Add(MetricVCPUsBuilt, int64(len(vcpus)))
	hySpan := h.Span.Child(obs.StageHyper)
	hyCfg.Span = hySpan
	a, err := HyperLevel(vcpus, sys.Platform, hyCfg, rng)
	hySpan.SetInt("vcpus", int64(len(vcpus)))
	hySpan.End()
	if err != nil {
		return nil, err
	}
	rec.Inc(MetricAllocSchedulable)
	a.Solution = h.Name()
	return a, nil
}

// EvenlyPartition is the "Evenly-partition (overhead-free CSA)" solution.
type EvenlyPartition struct {
	// Metrics, when non-nil, records search-effort counters.
	Metrics *metrics.Recorder
	// Provenance, when non-nil, records packing decisions and rejections.
	Provenance *provenance.Recorder
}

// Name implements Allocator.
func (EvenlyPartition) Name() string { return "Evenly-partition (overhead-free CSA)" }

// SetMetrics implements MetricsSetter.
func (e *EvenlyPartition) SetMetrics(r *metrics.Recorder) { e.Metrics = r }

// Allocate implements Allocator.
func (e EvenlyPartition) Allocate(sys *model.System, _ *rngutil.RNG) (*model.Allocation, error) {
	e.Metrics.Inc(MetricAllocCalls)
	a, err := evenlyPartitionAllocate(sys, sys.Platform, e.Metrics, e.Provenance)
	if err != nil {
		return nil, err
	}
	e.Metrics.Inc(MetricAllocSchedulable)
	a.Solution = EvenlyPartition{}.Name()
	return a, nil
}

// Baseline is the "Baseline (existing CSA)" solution.
type Baseline struct {
	// Metrics, when non-nil, records search-effort counters.
	Metrics *metrics.Recorder
	// Provenance, when non-nil, records packing decisions and rejections.
	Provenance *provenance.Recorder
}

// Name implements Allocator.
func (Baseline) Name() string { return "Baseline (existing CSA)" }

// SetMetrics implements MetricsSetter.
func (b *Baseline) SetMetrics(r *metrics.Recorder) { b.Metrics = r }

// Allocate implements Allocator.
func (b Baseline) Allocate(sys *model.System, _ *rngutil.RNG) (*model.Allocation, error) {
	b.Metrics.Inc(MetricAllocCalls)
	a, err := baselineAllocate(sys, sys.Platform, b.Metrics, b.Provenance)
	if err != nil {
		return nil, err
	}
	b.Metrics.Inc(MetricAllocSchedulable)
	a.Solution = Baseline{}.Name()
	return a, nil
}

// PaperSolutions returns the five solutions evaluated in Section 5, in the
// legend order of Figures 2-4: Baseline (existing CSA), Evenly-partition
// (overhead-free CSA), Heuristic (existing CSA), Heuristic (overhead-free
// CSA), Heuristic (flattening). All entries are pointers so that callers
// can attach a metrics recorder through MetricsSetter.
func PaperSolutions() []Allocator {
	return []Allocator{
		&Baseline{},
		&EvenlyPartition{},
		&Heuristic{Mode: ExistingCSA},
		&Heuristic{Mode: OverheadFree},
		&Heuristic{Mode: Flattening},
	}
}
