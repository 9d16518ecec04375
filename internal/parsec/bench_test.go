package parsec

import (
	"testing"

	"vc2m/internal/model"
)

func BenchmarkProfile(b *testing.B) {
	bm, err := ByName("streamcluster")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.Profile(model.PlatformA)
	}
}

func BenchmarkTraceProfile(b *testing.B) {
	bm, err := ByName("ferret")
	if err != nil {
		b.Fatal(err)
	}
	cfg := TraceConfig{Ops: 10000, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bm.TraceProfile(model.PlatformA, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
