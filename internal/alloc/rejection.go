package alloc

import (
	"errors"
	"fmt"
	"strings"

	"vc2m/internal/model"
	"vc2m/internal/provenance"
)

// RejectionError is the diagnosed form of model.ErrNotSchedulable: it
// names the allocation stage that gave up, a human-readable reason, and
// EVERY resource constraint that contributed to the failure — not just
// the first one checked. Callers that only care about schedulability keep
// using errors.Is(err, model.ErrNotSchedulable); callers that want the
// diagnosis unwrap with AsRejection.
type RejectionError struct {
	// Stage is the provenance stage that rejected (e.g. "hyper", "admit").
	Stage string
	// Reason summarizes the failure in one line.
	Reason string
	// Violated lists every binding resource, most-binding first.
	Violated []provenance.Resource
}

// Error implements error.
func (e *RejectionError) Error() string {
	names := make([]string, len(e.Violated))
	for i, r := range e.Violated {
		names[i] = string(r)
	}
	msg := fmt.Sprintf("%v [%s: binding %s]", model.ErrNotSchedulable, e.Stage, strings.Join(names, ","))
	if e.Reason != "" {
		msg += ": " + e.Reason
	}
	return msg
}

// Unwrap makes errors.Is(err, model.ErrNotSchedulable) hold for every
// RejectionError, so existing callers are oblivious to the diagnosis.
func (e *RejectionError) Unwrap() error { return model.ErrNotSchedulable }

// Binding returns the primary (most-binding) violated resource, or "" when
// none was recorded.
func (e *RejectionError) Binding() provenance.Resource {
	if len(e.Violated) == 0 {
		return ""
	}
	return e.Violated[0]
}

// AsRejection extracts the diagnosed rejection from an error chain.
func AsRejection(err error) (*RejectionError, bool) {
	var re *RejectionError
	if errors.As(err, &re) {
		return re, true
	}
	return nil, false
}

// failCause classifies, per resource, why a packing attempt failed.
// Multiple flags may be set at once: a two-core packing can be CPU-bound
// on one core and cache-starved on another, and the rejection must report
// both rather than whichever was checked first.
type failCause struct {
	cpu, cache, bw bool
}

// or merges two causes.
func (f failCause) or(g failCause) failCause {
	return failCause{cpu: f.cpu || g.cpu, cache: f.cache || g.cache, bw: f.bw || g.bw}
}

// violated renders the cause as a resource list in the canonical order
// (cpu, cache, bw). An empty cause defaults to CPU: the attempt failed
// with no partition able to help, which is the compute-bound story.
func (f failCause) violated() []provenance.Resource {
	var out []provenance.Resource
	if f.cpu {
		out = append(out, provenance.CPU)
	}
	if f.cache {
		out = append(out, provenance.Cache)
	}
	if f.bw {
		out = append(out, provenance.BW)
	}
	if len(out) == 0 {
		out = []provenance.Resource{provenance.CPU}
	}
	return out
}

// coreFailCause classifies one unschedulable core under its current
// partitions: a resource is implicated when one more partition of it
// (within the per-core cap) would still reduce the core's utilization —
// the core is starved of that resource — and CPU is implicated when no
// partition helps at all.
func coreFailCause(cs *coreState, plat model.Platform) failCause {
	u := cs.util()
	var f failCause
	if cs.cache < plat.C && gain(u, cs.utilMoreCache()) > schedEps {
		f.cache = true
	}
	if cs.bw < plat.B && gain(u, cs.utilMoreBW()) > schedEps {
		f.bw = true
	}
	if !f.cache && !f.bw {
		f.cpu = true
	}
	return f
}

// rankViolated orders resources by how often they bound failed attempts,
// most frequent first, with the canonical cpu/cache/bw order breaking
// ties. An all-zero tally falls back to CPU.
func rankViolated(cpuN, cacheN, bwN int) []provenance.Resource {
	type rc struct {
		r provenance.Resource
		n int
	}
	ranked := []rc{{provenance.CPU, cpuN}, {provenance.Cache, cacheN}, {provenance.BW, bwN}}
	// Three elements: stable selection by hand keeps the order deterministic.
	for i := 0; i < len(ranked); i++ {
		best := i
		for j := i + 1; j < len(ranked); j++ {
			if ranked[j].n > ranked[best].n {
				best = j
			}
		}
		ranked[i], ranked[best] = ranked[best], ranked[i]
	}
	var out []provenance.Resource
	for _, e := range ranked {
		if e.n > 0 {
			out = append(out, e.r)
		}
	}
	if len(out) == 0 {
		out = []provenance.Resource{provenance.CPU}
	}
	return out
}
