// Package timeunit provides the fixed-point time representation shared by
// the analysis code and the discrete-event simulators.
//
// The schedulability analysis (package csa) works in float64 milliseconds,
// which matches the units used in the paper (periods in [100, 1100] ms).
// The simulators (packages sim, hypersim, membus) need a totally ordered,
// drift-free clock, so they use integer ticks of one microsecond. This
// package converts between the two and supplies the integer arithmetic
// (GCD/LCM for hyperperiods, saturating operations) that both sides need.
package timeunit

import (
	"fmt"
	"math"
)

// Ticks is a point in (or span of) simulated time, in microseconds.
type Ticks int64

// TicksPerMilli is the number of Ticks in one millisecond.
const TicksPerMilli Ticks = 1000

// MaxTicks is the largest representable time value. It is used as an
// "infinite" horizon by the simulators.
const MaxTicks Ticks = math.MaxInt64

// FromMillis converts a duration in milliseconds to Ticks, rounding to the
// nearest microsecond. Fractional WCETs produced by workload generation are
// therefore quantized at 1 us, which is far below the 100 ms-scale periods
// used in the experiments.
func FromMillis(ms float64) Ticks {
	return Ticks(math.Round(ms * float64(TicksPerMilli)))
}

// FromMillisCeil converts milliseconds to Ticks rounding up. The simulators
// use it for budgets and WCETs so that quantization never makes a workload
// easier than the analysis assumed.
func FromMillisCeil(ms float64) Ticks {
	return Ticks(math.Ceil(ms * float64(TicksPerMilli)))
}

// FromMillisFloor converts milliseconds to Ticks rounding down. The
// hypervisor simulator floors task execution demands (jobs may take any
// time up to their WCET) while ceiling VCPU budgets, so tick quantization
// can never manufacture a spurious deadline miss.
func FromMillisFloor(ms float64) Ticks {
	return Ticks(math.Floor(ms * float64(TicksPerMilli)))
}

// Millis converts t to floating-point milliseconds.
func (t Ticks) Millis() float64 {
	return float64(t) / float64(TicksPerMilli)
}

// Count returns the raw number of ticks as a float64 — a dimensionless
// count for per-tick rate arithmetic (requests = rate * elapsed.Count()).
// Unlike Millis it performs no unit conversion; use it only where the
// surrounding math is explicitly per-tick, never where the value meets
// millisecond-valued numbers.
func (t Ticks) Count() float64 {
	return float64(t)
}

// FromCount converts a dimensionless tick count — typically produced by
// per-tick rate arithmetic on Count values — back to Ticks, truncating
// toward zero. It is the inverse of Count, NOT a millisecond conversion;
// milliseconds enter through FromMillis and friends.
func FromCount(f float64) Ticks {
	return Ticks(f)
}

// Ratio returns a/b — the dimensionless fraction of two time spans
// (utilizations, busy fractions, deprivation shares). The division is
// performed directly on the tick counts, so the result is bit-identical
// to float64(a)/float64(b) with no intermediate unit conversion.
func Ratio(a, b Ticks) float64 {
	return float64(a) / float64(b)
}

// Scale multiplies t by a dimensionless factor, truncating toward zero —
// bit-compatible with the Ticks(float64(t) * f) pattern it replaces
// (e.g. stretching a base latency by a contention factor).
func (t Ticks) Scale(f float64) Ticks {
	return Ticks(float64(t) * f)
}

// String formats the time in milliseconds with microsecond precision.
func (t Ticks) String() string {
	return fmt.Sprintf("%.3fms", t.Millis())
}

// GCD returns the greatest common divisor of a and b. GCD(0, x) = x.
func GCD(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LCM returns the least common multiple of a and b, or 0 if either is 0.
// It panics on overflow, which cannot occur for the period ranges used in
// the experiments (harmonic periods below 2^20 ticks).
func LCM(a, b int64) int64 {
	r, ok := LCMChecked(a, b)
	if !ok {
		panic("timeunit: LCM overflow")
	}
	return r
}

// LCMChecked returns the least common multiple of a and b and reports
// whether it is representable in int64. Either input being 0 yields (0,
// true).
func LCMChecked(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	g := GCD(a, b)
	q := a / g
	r := q * b
	if r/b != q {
		return 0, false
	}
	if r < 0 {
		return -r, true
	}
	return r, true
}

// LCMAll returns the least common multiple of all values, or 0 for an empty
// input. It is used to compute hyperperiods. It panics on overflow; use
// LCMAllChecked when the inputs are not known to be harmonic.
func LCMAll(vs []int64) int64 {
	l, ok := LCMAllChecked(vs)
	if !ok {
		panic("timeunit: LCMAll overflow")
	}
	return l
}

// LCMAllChecked returns the least common multiple of all values and reports
// whether it is representable in int64.
func LCMAllChecked(vs []int64) (int64, bool) {
	var l int64
	for i, v := range vs {
		if i == 0 {
			l = v
			if l < 0 {
				l = -l
			}
			continue
		}
		var ok bool
		l, ok = LCMChecked(l, v)
		if !ok {
			return 0, false
		}
	}
	return l, true
}

// Hyperperiod returns the least common multiple of the given tick values.
func Hyperperiod(periods []Ticks) Ticks {
	vs := make([]int64, len(periods))
	for i, p := range periods {
		vs[i] = int64(p)
	}
	return Ticks(LCMAll(vs))
}

// AlmostEqual reports whether a and b differ by at most eps. The analysis
// code uses it to compare float64 utilizations and budgets.
func AlmostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

// Harmonic reports whether every pair of values divides one another, i.e.
// for all i, j either v[i] | v[j] or v[j] | v[i]. The overhead-free analysis
// (Theorem 2) requires harmonic task periods.
func Harmonic(vs []int64) bool {
	for i := range vs {
		if vs[i] <= 0 {
			return false
		}
		for j := i + 1; j < len(vs); j++ {
			if vs[i]%vs[j] != 0 && vs[j]%vs[i] != 0 {
				return false
			}
		}
	}
	return true
}
