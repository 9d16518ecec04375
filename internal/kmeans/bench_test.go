package kmeans

import (
	"testing"

	"vc2m/internal/rngutil"
)

func BenchmarkCluster(b *testing.B) {
	// 100 points in the slowdown-vector dimensionality of Platform A
	// (19 x 20 = 380), 3 clusters — the hypervisor-level clustering load.
	const dim = 380
	rng := rngutil.New(1)
	points := make([]float64, 100*dim)
	for i := 0; i < 100; i++ {
		base := 1 + rng.Float64()*3
		for d := 0; d < dim; d++ {
			points[i*dim+d] = base * (1 + rng.Float64()*0.1)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Cluster(points, dim, 3, rngutil.New(int64(i)))
	}
}
