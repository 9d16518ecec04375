package alloc

import (
	"context"

	"vc2m/internal/metrics"
)

// Counter names recorded by the allocators when a recorder is
// attached (see Heuristic.Metrics and MetricsSetter). Together with the
// csa.* counters they form the per-solution search-effort profile that the
// experiment harness reports.
const (
	// MetricAllocCalls counts Allocate invocations; MetricAllocSchedulable
	// counts the ones that returned a feasible allocation.
	MetricAllocCalls       = "alloc.allocate.calls"
	MetricAllocSchedulable = "alloc.allocate.schedulable"
	// MetricVCPUsBuilt counts VCPUs produced by the VM level.
	MetricVCPUsBuilt = "alloc.vcpus.built"
	// MetricKMeansRuns / MetricKMeansIters count clustering invocations and
	// their Lloyd iterations (VM level and hypervisor level combined).
	MetricKMeansRuns  = "alloc.kmeans.runs"
	MetricKMeansIters = "alloc.kmeans.iterations"
	// MetricMTried counts core counts m examined by the outer loop.
	MetricMTried = "alloc.hyper.m_tried"
	// MetricPermutations counts cluster permutations tried (one Phase 1
	// packing each).
	MetricPermutations  = "alloc.hyper.permutations"
	MetricPhase1Packing = "alloc.phase1.packings"
	// MetricPhase2Calls counts Phase 2 invocations; MetricPhase2Attempts
	// counts candidate partition-grant evaluations (gain computations);
	// MetricPhase2Grants counts partitions actually granted.
	MetricPhase2Calls    = "alloc.phase2.calls"
	MetricPhase2Attempts = "alloc.phase2.grant_attempts"
	MetricPhase2Grants   = "alloc.phase2.grants"
	// MetricPhase3Rounds counts load-balancing rounds;
	// MetricPhase3Migrations counts VCPU migrations performed.
	MetricPhase3Rounds     = "alloc.phase3.rounds"
	MetricPhase3Migrations = "alloc.phase3.migrations"
	// MetricIncrementalCalls counts Incremental invocations (one churn
	// delta each); MetricIncrementalAdmits/Rejects count arrival verdicts,
	// MetricIncrementalEvicts counts departures applied, and
	// MetricIncrementalRepacks counts arrivals that fell back to a full
	// hypervisor-level repack instead of a warm placement.
	MetricIncrementalCalls   = "alloc.incremental.calls"
	MetricIncrementalAdmits  = "alloc.incremental.admits"
	MetricIncrementalRejects = "alloc.incremental.rejects"
	MetricIncrementalEvicts  = "alloc.incremental.evicts"
	MetricIncrementalRepacks = "alloc.incremental.repacks"
)

// MetricsSetter is implemented by allocators that can record search-effort
// metrics. The experiment harness uses it to attach one recorder per
// solution without widening the Allocator interface.
type MetricsSetter interface {
	SetMetrics(*metrics.Recorder)
}

// ContextSetter is implemented by allocators whose search polls a
// cancellation context (see Heuristic.Ctx). Harnesses and the allocation
// server use it to make long searches abortable without widening the
// Allocator interface.
type ContextSetter interface {
	SetContext(context.Context)
}
