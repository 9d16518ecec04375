package metrics

import "testing"

// BenchmarkNilRecorder measures the disabled-path cost every instrumented
// call site pays: a nil check. Compare against BenchmarkLiveRecorder for
// the enabled-path cost (mutex + map update).
func BenchmarkNilRecorder(b *testing.B) {
	var r *Recorder
	for i := 0; i < b.N; i++ {
		r.Add("csa.sbf.evals", 64)
	}
}

func BenchmarkLiveRecorder(b *testing.B) {
	r := New()
	for i := 0; i < b.N; i++ {
		r.Add("csa.sbf.evals", 64)
	}
}
