// Package stats provides the small summary-statistics accumulators used to
// report the overhead tables (min/avg/max, as in Tables 1 and 2 of the
// paper) and the experiment series (mean running time, schedulable
// fractions).
package stats

import "fmt"

// Summary accumulates observations and reports min, mean and max. The zero
// value is an empty summary ready for use. The mean is a running mean,
// updated by each observation's deviation from it.
type Summary struct {
	n    int
	min  float64
	max  float64
	mean float64
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

// Row formats the summary as "min | avg | max" with the given printf verb
// applied to each value, matching the layout of the paper's overhead tables.
func (s *Summary) Row(format string) string {
	return fmt.Sprintf(format+" | "+format+" | "+format, s.Min(), s.Mean(), s.Max())
}

// Sample retains all observations, to be summarized once recording ends.
// The zero value is ready for use.
type Sample struct {
	xs []float64
}

// Add records one observation.
func (p *Sample) Add(x float64) {
	p.xs = append(p.xs, x)
}

// N returns the number of observations.
func (p *Sample) N() int { return len(p.xs) }

// Summary converts the sample to a Summary.
func (p *Sample) Summary() Summary {
	var s Summary
	for _, x := range p.xs {
		s.Add(x)
	}
	return s
}
