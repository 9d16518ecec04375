// Package metrics provides the lightweight counter recorder that
// instruments vC2M's analysis stack: the compositional analyses (dbf/sbf
// checkpoint evaluations, minimum-budget searches), the allocation
// heuristic (KMeans iterations, permutations tried, Phase 2 partition
// grants, Phase 3 migrations), the hypervisor simulator (context switches,
// throttles, replenishments) and the experiment harnesses (points and
// tasksets). It exists so that wall-clock differences between solutions —
// e.g. the order-of-magnitude running-time gap of the paper's Figure 4 —
// can be explained from counter evidence rather than observed as opaque
// totals. Wall time itself is the business of the obs spans, not of this
// package.
//
// Design constraints, in order:
//
//   - Disabled must be free: every method is safe and a no-op on a nil
//     *Recorder, so instrumented code paths carry only a nil check when
//     metrics are off. Call sites in hot loops accumulate locally and add
//     once per call.
//   - Deterministic: counters are int64 sums, so totals are bit-identical
//     across runs with the same seed regardless of goroutine interleaving.
//   - Concurrent: a Recorder may be shared by the goroutines of a parallel
//     schedulability sweep; all methods are mutex-protected.
package metrics

import (
	"sort"
	"sync"
)

// Recorder accumulates named counters. The zero value is NOT ready for use
// — construct with New. A nil *Recorder is a valid no-op sink: every method
// checks the receiver, so instrumented code never needs its own guard.
type Recorder struct {
	mu       sync.Mutex
	counters map[string]int64
}

// New returns an empty, enabled recorder.
func New() *Recorder {
	return &Recorder{counters: map[string]int64{}}
}

// Enabled reports whether the recorder actually records (i.e. is non-nil).
// Instrumented call sites that would pay to *assemble* a metric (not just
// to report it) may use this to skip the assembly entirely.
func (r *Recorder) Enabled() bool { return r != nil }

// Inc adds 1 to the named counter.
func (r *Recorder) Inc(name string) {
	if r == nil {
		return
	}
	r.Add(name, 1)
}

// Add adds delta to the named counter, creating it at zero first. Adding a
// zero delta registers the counter, which makes "this solution performed 0
// evaluations" visible in renderings.
func (r *Recorder) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Counter returns the named counter's value (0 when absent).
func (r *Recorder) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Reset discards everything recorded so far.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters = map[string]int64{}
	r.mu.Unlock()
}

// Snapshot returns an immutable copy of everything recorded so far. A nil
// recorder yields the zero Snapshot.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for k, v := range r.counters { //vc2m:ordered map-to-map copy
			s.Counters[k] = v
		}
	}
	return s
}

// sortedKeys returns the map's keys in sorted order, the deterministic
// iteration order used by every rendering.
func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m { //vc2m:ordered keys are sorted below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
