package csa

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// This file extends the demand-bound analysis from implicit deadlines
// (deadline = period, the paper's task model) to constrained deadlines
// (deadline <= period), beyond the paper's task model. No allocation path
// uses it: together with QPA it is the independent oracle the tests check
// Demand.DBF against. The constrained-deadline demand is
//
//	dbf(t) = sum_i max(0, floor((t - d_i)/p_i) + 1) * e_i
//
// with demand checkpoints at t = k*p_i + d_i. With d_i = p_i this reduces
// exactly to the implicit-deadline dbf used everywhere else.

// ConstrainedDemand precomputes the EDF demand structure for
// constrained-deadline periodic tasks.
type ConstrainedDemand struct {
	periods     []float64
	deadlines   []float64
	checkpoints []float64
	counts      [][]float64
}

// NewConstrainedDemand builds the demand structure. Every deadline must
// satisfy 0 < d_i <= p_i. Checkpoints cover k*p_i + d_i up to one
// hyperperiod past the largest deadline, which is sufficient for
// synchronous releases.
func NewConstrainedDemand(periods, deadlines []float64) (*ConstrainedDemand, error) {
	if len(periods) == 0 {
		return nil, errors.New("csa: NewConstrainedDemand with no tasks")
	}
	if len(deadlines) != len(periods) {
		return nil, fmt.Errorf("csa: %d deadlines for %d periods", len(deadlines), len(periods))
	}
	var maxD float64
	for i, p := range periods {
		if p <= 0 {
			return nil, fmt.Errorf("csa: non-positive period %v", p)
		}
		d := deadlines[i]
		if d <= 0 || d > p+1e-9 {
			return nil, fmt.Errorf("csa: deadline %v outside (0, %v]", d, p)
		}
		if d > maxD {
			maxD = d
		}
	}

	hyper, err := hyperperiod(periods)
	if err != nil {
		return nil, err
	}
	horizon := hyper + maxD

	set := map[float64]bool{}
	total := 0
	for i, p := range periods {
		d := deadlines[i]
		n := int(math.Floor((horizon-d)/p+1e-9)) + 1
		total += n
		if total > maxCheckpoints {
			return nil, ErrHyperperiodTooLarge
		}
		for k := 0; k < n; k++ {
			set[float64(k)*p+d] = true
		}
	}
	cps := make([]float64, 0, len(set))
	for t := range set { //vc2m:ordered checkpoints are sorted below
		cps = append(cps, t)
	}
	sort.Float64s(cps)

	counts := make([][]float64, len(cps))
	for k, t := range cps {
		row := make([]float64, len(periods))
		for i, p := range periods {
			jobs := math.Floor((t-deadlines[i])/p+1e-9) + 1
			if jobs < 0 {
				jobs = 0
			}
			row[i] = jobs
		}
		counts[k] = row
	}
	return &ConstrainedDemand{
		periods:     periods,
		deadlines:   deadlines,
		checkpoints: cps,
		counts:      counts,
	}, nil
}

// Checkpoints returns the demand checkpoints in increasing order (shared
// slice; do not modify).
func (d *ConstrainedDemand) Checkpoints() []float64 { return d.checkpoints }

// DBF returns the demand bound at every checkpoint for the WCET vector.
func (d *ConstrainedDemand) DBF(wcets []float64) []float64 {
	if len(wcets) != len(d.periods) {
		panic("csa: DBF with wrong WCET vector length")
	}
	out := make([]float64, len(d.checkpoints))
	for k, row := range d.counts {
		var s float64
		for i, n := range row {
			s += n * wcets[i]
		}
		out[k] = s
	}
	return out
}

// DBFAt evaluates the constrained-deadline demand bound at an arbitrary t.
func (d *ConstrainedDemand) DBFAt(wcets []float64, t float64) float64 {
	if len(wcets) != len(d.periods) {
		panic("csa: DBFAt with wrong WCET vector length")
	}
	var s float64
	for i, p := range d.periods {
		jobs := math.Floor((t-d.deadlines[i])/p+1e-9) + 1
		if jobs > 0 {
			s += jobs * wcets[i]
		}
	}
	return s
}
