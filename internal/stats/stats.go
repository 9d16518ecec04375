// Package stats provides the small summary-statistics accumulators used to
// report the overhead tables (min/avg/max, as in Tables 1 and 2 of the
// paper) and the experiment series (mean running time, schedulable
// fractions).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates observations and reports min, mean and max. The zero
// value is an empty summary ready for use. Mean and variance are maintained
// with Welford's online algorithm, which stays accurate for large-magnitude,
// low-variance observations (e.g. nanosecond-scale timestamps) where the
// textbook sum-of-squares formula cancels catastrophically.
type Summary struct {
	n    int
	min  float64
	max  float64
	mean float64
	m2   float64 // sum of squared deviations from the running mean
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	if s.n == 0 {
		s.min = x
		s.max = x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of observations recorded.
func (s *Summary) N() int { return s.n }

// Min returns the smallest observation, or 0 if none were recorded.
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation, or 0 if none were recorded.
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Mean returns the arithmetic mean, or 0 if no observations were recorded.
func (s *Summary) Mean() float64 {
	return s.mean
}

// StdDev returns the population standard deviation, or 0 for fewer than two
// observations.
func (s *Summary) StdDev() float64 {
	if s.n < 2 {
		return 0
	}
	v := s.m2 / float64(s.n)
	if v < 0 {
		v = 0 // guard against rounding
	}
	return math.Sqrt(v)
}

// Row formats the summary as "min | avg | max" with the given printf verb
// applied to each value, matching the layout of the paper's overhead tables.
func (s *Summary) Row(format string) string {
	return fmt.Sprintf(format+" | "+format+" | "+format, s.Min(), s.Mean(), s.Max())
}

// Sample retains all observations so that percentiles can be computed. The
// zero value is ready for use.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add records one observation.
func (p *Sample) Add(x float64) {
	p.xs = append(p.xs, x)
	p.sorted = false
}

// N returns the number of observations.
func (p *Sample) N() int { return len(p.xs) }

// Percentile returns the q-th percentile (q in [0, 100]) using linear
// interpolation between closest ranks. It returns 0 for an empty sample.
func (p *Sample) Percentile(q float64) float64 {
	if len(p.xs) == 0 {
		return 0
	}
	if !p.sorted {
		sort.Float64s(p.xs)
		p.sorted = true
	}
	if q <= 0 {
		return p.xs[0]
	}
	if q >= 100 {
		return p.xs[len(p.xs)-1]
	}
	pos := q / 100 * float64(len(p.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return p.xs[lo]
	}
	frac := pos - float64(lo)
	return p.xs[lo]*(1-frac) + p.xs[hi]*frac
}

// Summary converts the sample to a Summary.
func (p *Sample) Summary() Summary {
	var s Summary
	for _, x := range p.xs {
		s.Add(x)
	}
	return s
}
