package alloc

import (
	"errors"
	"testing"

	"vc2m/internal/metrics"
	"vc2m/internal/model"
	"vc2m/internal/provenance"
	"vc2m/internal/rngutil"
	"vc2m/internal/workload"
)

func benchSystem(b *testing.B, util float64) *model.System {
	b.Helper()
	sys, err := workload.Generate(workload.Config{
		Platform:      model.PlatformA,
		TargetRefUtil: util,
		Dist:          workload.Uniform,
	}, rngutil.New(42))
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func benchAllocator(b *testing.B, a Allocator, util float64) {
	sys := benchSystem(b, util)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Allocate(sys, rngutil.New(int64(i))); err != nil &&
			!errors.Is(err, model.ErrNotSchedulable) {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeuristicFlattening(b *testing.B) {
	benchAllocator(b, &Heuristic{Mode: Flattening}, 1.0)
}

func BenchmarkHeuristicOverheadFree(b *testing.B) {
	benchAllocator(b, &Heuristic{Mode: OverheadFree}, 1.0)
}

func BenchmarkHeuristicExistingCSA(b *testing.B) {
	benchAllocator(b, &Heuristic{Mode: ExistingCSA}, 1.0)
}

func BenchmarkBaseline(b *testing.B) {
	benchAllocator(b, Baseline{}, 1.0)
}

func BenchmarkEvenlyPartition(b *testing.B) {
	benchAllocator(b, EvenlyPartition{}, 1.0)
}

// BenchmarkHeuristicExistingCSAMetrics is the live-recorder counterpart of
// BenchmarkHeuristicExistingCSA; comparing the two (and the nil-recorder
// default above) bounds the recording overhead.
func BenchmarkHeuristicExistingCSAMetrics(b *testing.B) {
	benchAllocator(b, &Heuristic{Mode: ExistingCSA, Metrics: metrics.New()}, 1.0)
}

// BenchmarkHyperLevel times the hypervisor-level search (Phases 1-3) alone,
// on the VCPUs of cold-existing-shaped systems: Platform A, uniform tasks
// at reference utilization 1.2 over 2 VMs, existing-CSA interfaces. The
// recorded case attaches a metrics and a provenance recorder, as a served
// run does.
func BenchmarkHyperLevel(b *testing.B) {
	const systems = 8
	var inputs [][]*model.VCPU
	for seed := int64(1); len(inputs) < systems; seed++ {
		sys, err := workload.Generate(workload.Config{
			Platform: model.PlatformA, TargetRefUtil: 1.2, Dist: workload.Uniform, NumVMs: 2,
		}, rngutil.New(seed))
		if err != nil {
			b.Fatal(err)
		}
		var vcpus []*model.VCPU
		for _, vm := range sys.VMs {
			vs, err := VMLevel(vm, sys.Platform, VMLevelConfig{Mode: ExistingCSA}, len(vcpus), rngutil.New(seed))
			if err != nil {
				b.Fatal(err)
			}
			vcpus = append(vcpus, vs...)
		}
		inputs = append(inputs, vcpus)
	}
	for _, recorded := range []bool{false, true} {
		name := "bare"
		if recorded {
			name = "recorded"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var cfg HyperConfig
				if recorded {
					cfg.Metrics, cfg.Provenance = metrics.New(), provenance.New()
				}
				if _, err := HyperLevel(inputs[i%systems], model.PlatformA, cfg, rngutil.New(int64(i%systems))); err != nil &&
					!errors.Is(err, model.ErrNotSchedulable) {
					b.Fatal(err)
				}
			}
		})
	}
}
