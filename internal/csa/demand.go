package csa

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"vc2m/internal/model"
	"vc2m/internal/timeunit"
)

// maxCheckpoints bounds the number of demand checkpoints the analysis will
// enumerate for one VCPU. Harmonic tasksets stay far below it; it exists to
// reject pathological non-harmonic period combinations whose hyperperiod
// explodes.
const maxCheckpoints = 100000

// ErrHyperperiodTooLarge is returned when a (non-harmonic) taskset's
// hyperperiod produces more demand checkpoints than the analysis is willing
// to enumerate.
var ErrHyperperiodTooLarge = errors.New("csa: hyperperiod too large for exact analysis")

// Demand precomputes the structure of a periodic taskset's EDF demand-bound
// function so that the demand under different WCET vectors (different (c,b)
// allocations) can be evaluated cheaply. Tasks sharing a period contribute
// floor(t/p) * sum of their WCETs, so the table is built over the distinct
// periods only: dbf(t_k) = sum_j counts[k*g+j] * E_j, where counts[k*g+j] =
// floor(t_k / uniq_j) and E_j folds the WCETs of every task with period
// uniq_j. The paper's workloads draw periods from a small harmonic ladder,
// so g is typically far below the task count.
//
// The counts matrix is stored row-major in one contiguous slice: the
// existing CSA evaluates it once per candidate (c,b) allocation — the
// hottest loop in the analysis — and a flat layout keeps the inner product
// on sequential memory with no per-row pointer chasing.
//
// The evaluation methods (DBF, DBFInto, DBFAt) share an internal scratch
// buffer and must not be called concurrently on one Demand; concurrent
// analyses build their own Demand (as ExistingVCPU does).
type Demand struct {
	periods     []float64
	uniq        []float64 // distinct periods, first-appearance order
	groupOf     []int     // task index -> index into uniq
	checkpoints []float64
	counts      []float64 // len(checkpoints) rows of len(uniq), row-major
	groupSums   []float64 // scratch: per-uniq WCET sums of the current vector
}

// foldWCETs accumulates the WCET vector into per-distinct-period sums.
func (d *Demand) foldWCETs(wcets []float64) []float64 {
	g := d.groupSums
	for j := range g {
		g[j] = 0
	}
	for i, w := range wcets {
		g[d.groupOf[i]] += w
	}
	return g
}

// NewDemand builds the demand structure for implicit-deadline periodic
// tasks with the given periods. Checkpoints are the multiples of each
// period up to the hyperperiod, which for harmonic periods is simply the
// maximum period. Non-harmonic periods are handled exactly by quantizing to
// microsecond ticks and taking the LCM; ErrHyperperiodTooLarge is returned
// if that produces more than maxCheckpoints checkpoints.
func NewDemand(periods []float64) (*Demand, error) {
	d := new(Demand)
	if err := d.Reset(periods); err != nil {
		return nil, err
	}
	return d, nil
}

// Reset rebuilds d in place for a new period vector, exactly as NewDemand
// builds it, reusing d's buffers: a packer that prices many candidate task
// groups (Baseline's best-fit trials) keeps one Demand instead of
// allocating a fresh one per trial. d keeps periods (for its length only)
// until the next Reset. After an error, d must not be evaluated until a
// later Reset succeeds.
func (d *Demand) Reset(periods []float64) error {
	if len(periods) == 0 {
		return errors.New("csa: NewDemand with no tasks")
	}
	for _, p := range periods {
		if p <= 0 {
			return fmt.Errorf("csa: non-positive period %v", p)
		}
	}

	// Group tasks by distinct period (exact equality: tasks drawn from the
	// same ladder share bit-identical periods, and distinct values must
	// stay distinct).
	uniq := d.uniq[:0]
	groupOf := slices.Grow(d.groupOf[:0], len(periods))[:len(periods)]
	for i, p := range periods {
		j := 0
		for ; j < len(uniq); j++ {
			if uniq[j] == p { //vc2m:floateq exact grouping of identical periods
				break
			}
		}
		if j == len(uniq) {
			uniq = append(uniq, p)
		}
		groupOf[i] = j
	}
	d.periods, d.uniq, d.groupOf = periods, uniq, groupOf

	// Equal periods have equal LCMs and harmonic relations, so the distinct
	// ones decide the hyperperiod.
	hyper, err := hyperperiod(uniq)
	if err != nil {
		return err
	}

	// The checkpoint budget counts every task's multiples, duplicates
	// included, as the analysis always has.
	total := 0
	for _, p := range periods {
		total += int(math.Floor(hyper/p + 1e-9))
		if total > maxCheckpoints {
			return ErrHyperperiodTooLarge
		}
	}
	// Distinct checkpoints: every multiple of every distinct period up to
	// the hyperperiod, sorted with equal neighbours dropped. The multiples
	// are positive, so no NaN or signed zero makes == disagree with
	// distinctness.
	cps := d.checkpoints[:0]
	for _, p := range uniq {
		n := int(math.Floor(hyper/p + 1e-9))
		for k := 1; k <= n; k++ {
			cps = append(cps, float64(k)*p)
		}
	}
	slices.Sort(cps)
	cps = slices.Compact(cps)
	d.checkpoints = cps

	g := len(uniq)
	counts := slices.Grow(d.counts[:0], len(cps)*g)[:len(cps)*g]
	for k, t := range cps {
		row := counts[k*g : (k+1)*g]
		for j, p := range uniq {
			row[j] = math.Floor(t/p + 1e-9)
		}
	}
	d.counts = counts
	d.groupSums = slices.Grow(d.groupSums[:0], g)[:g]
	return nil
}

// hyperperiod returns the LCM of the periods. Harmonic periods (each pair
// divides) short-circuit to the maximum; otherwise periods are quantized to
// microsecond ticks.
func hyperperiod(periods []float64) (float64, error) {
	if HarmonicPeriods(periods) {
		m := periods[0]
		for _, p := range periods[1:] {
			if p > m {
				m = p
			}
		}
		return m, nil
	}
	ticks := make([]int64, len(periods))
	for i, p := range periods {
		ticks[i] = int64(timeunit.FromMillis(p))
		if ticks[i] <= 0 {
			return 0, fmt.Errorf("csa: period %v below tick resolution", p)
		}
	}
	l, ok := timeunit.LCMAllChecked(ticks)
	if !ok {
		return 0, ErrHyperperiodTooLarge
	}
	return timeunit.Ticks(l).Millis(), nil
}

// Checkpoints returns the demand checkpoints in increasing order. The
// returned slice is shared; callers must not modify it.
func (d *Demand) Checkpoints() []float64 { return d.checkpoints }

// DBF returns the EDF demand bound at every checkpoint for the given WCET
// vector (wcets[i] corresponds to periods[i]). The returned slice is
// freshly allocated. It panics if len(wcets) != number of tasks.
func (d *Demand) DBF(wcets []float64) []float64 {
	return d.DBFInto(make([]float64, len(d.checkpoints)), wcets)
}

// DBFInto is DBF writing into dst, which must have one slot per checkpoint.
// Callers evaluating many WCET vectors (one per candidate (c,b) allocation)
// reuse one buffer across the whole search instead of allocating per
// candidate. It returns dst.
func (d *Demand) DBFInto(dst, wcets []float64) []float64 {
	if len(wcets) != len(d.periods) {
		panic("csa: DBF with wrong WCET vector length")
	}
	if len(dst) != len(d.checkpoints) {
		panic("csa: DBFInto with wrong destination length")
	}
	g := d.foldWCETs(wcets)
	n := len(g)
	for k := range dst {
		row := d.counts[k*n : (k+1)*n]
		var s float64
		for j, c := range row {
			s += c * g[j]
		}
		dst[k] = s
	}
	return dst
}

// DBFAt returns the EDF demand bound dbf(t) = sum_i floor(t/p_i) * e_i for
// an arbitrary time t. When t coincides with a precomputed checkpoint, the
// memoized floor counts are reused instead of recomputing each floor — the
// common case for callers walking the checkpoint grid under many candidate
// WCET vectors.
func (d *Demand) DBFAt(wcets []float64, t float64) float64 {
	if len(wcets) != len(d.periods) {
		panic("csa: DBFAt with wrong WCET vector length")
	}
	g := d.foldWCETs(wcets)
	n := len(g)
	if k := sort.SearchFloat64s(d.checkpoints, t); k < len(d.checkpoints) && d.checkpoints[k] == t { //vc2m:floateq checkpoint grid hit
		row := d.counts[k*n : (k+1)*n]
		var s float64
		for j, c := range row {
			s += c * g[j]
		}
		return s
	}
	var s float64
	for j, p := range d.uniq {
		s += math.Floor(t/p+1e-9) * g[j]
	}
	return s
}

// HarmonicPeriods reports whether the (positive) periods are pairwise
// harmonic: for every pair, one divides the other. Periods generated as
// base * 2^k satisfy this exactly in float64 arithmetic; a relative
// tolerance of 1e-9 absorbs any representation noise from other sources.
func HarmonicPeriods(periods []float64) bool {
	for i := range periods {
		if periods[i] <= 0 {
			return false
		}
		for j := i + 1; j < len(periods); j++ {
			a, b := periods[i], periods[j]
			if a < b {
				a, b = b, a
			}
			ratio := a / b
			if math.Abs(ratio-math.Round(ratio)) > 1e-9*ratio {
				return false
			}
		}
	}
	return true
}

// TaskPeriods extracts the period vector of a taskset.
func TaskPeriods(tasks []*model.Task) []float64 {
	out := make([]float64, len(tasks))
	for i, t := range tasks {
		out[i] = t.Period
	}
	return out
}

// TaskWCETs extracts the WCET vector e_i(c,b) of a taskset under the given
// allocation.
func TaskWCETs(tasks []*model.Task, c, b int) []float64 {
	return TaskWCETsInto(make([]float64, len(tasks)), tasks, c, b)
}

// TaskWCETsInto is TaskWCETs writing into dst (one slot per task), for
// callers sweeping many (c,b) allocations with one reusable buffer. It
// returns dst.
func TaskWCETsInto(dst []float64, tasks []*model.Task, c, b int) []float64 {
	if len(dst) != len(tasks) {
		panic("csa: TaskWCETsInto with wrong destination length")
	}
	for i, t := range tasks {
		dst[i] = t.WCET.At(c, b)
	}
	return dst
}
