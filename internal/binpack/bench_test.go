package binpack

import "testing"

func benchSizes(n int) []float64 {
	sizes := make([]float64, n)
	for i := range sizes {
		sizes[i] = 0.05 + float64((i*37)%60)/100
	}
	return sizes
}

func BenchmarkPackDecreasing(b *testing.B) {
	sizes := benchSizes(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PackDecreasing(sizes, 40, 1.0)
	}
}
