package alloc

import (
	"errors"
	"testing"

	"vc2m/internal/metrics"
	"vc2m/internal/model"
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
