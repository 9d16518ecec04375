package csa

import (
	"vc2m/internal/model"
)

// Overheads models the intra-core cache-related overhead accounted for by
// budget inflation, following the technique of [17] (cache-aware
// compositional analysis): VCPUs running on the same core still suffer
// cache-related preemption/completion delay even with inter-core
// isolation, and the analysis absorbs it by inflating VCPU budgets before
// allocation. All values are in milliseconds; the zero value
// disables inflation (the default in the experiments, matching the paper's
// evaluation, which reports overhead separately in Tables 1-2).
type Overheads struct {
	// VCPUPreemption is charged to a VCPU's budget once per VCPU period for
	// each preemption/completion event pair on its core.
	VCPUPreemption float64
}

// InflateVCPU inflates a VCPU's budget table in place by the
// VCPU-preemption overhead (one preemption/completion pair per period) and
// returns the VCPU. With a zero overhead the VCPU is returned unchanged.
func (o Overheads) InflateVCPU(v *model.VCPU) *model.VCPU {
	if o.VCPUPreemption <= 0 {
		return v
	}
	old := v.Budget
	inflated := old.Clone()
	inflated.Fill(func(c, b int) float64 { return old.At(c, b) + o.VCPUPreemption })
	v.Budget = inflated
	return v
}
