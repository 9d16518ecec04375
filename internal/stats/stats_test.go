package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Min() != 0 || s.Max() != 0 || s.Mean() != 0 || s.StdDev() != 0 { //vc2m:floateq an empty summary returns assigned zeros, never computed ones
		t.Error("empty Summary should report zeros")
	}
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{3, 1, 4, 1, 5} {
		s.Add(x)
	}
	if s.N() != 5 {
		t.Errorf("N = %d, want 5", s.N())
	}
	if s.Min() != 1 { //vc2m:floateq the minimum is an integer-valued observation stored verbatim
		t.Errorf("Min = %v, want 1", s.Min())
	}
	if s.Max() != 5 { //vc2m:floateq the maximum is an integer-valued observation stored verbatim
		t.Errorf("Max = %v, want 5", s.Max())
	}
	if math.Abs(s.Mean()-2.8) > 1e-12 {
		t.Errorf("Mean = %v, want 2.8", s.Mean())
	}
}

func TestSummaryNegativeValues(t *testing.T) {
	var s Summary
	s.Add(-5)
	s.Add(-1)
	if s.Min() != -5 || s.Max() != -1 { //vc2m:floateq min and max are integer-valued observations stored verbatim
		t.Errorf("Min/Max = %v/%v, want -5/-1", s.Min(), s.Max())
	}
}

func TestSummaryStdDev(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if math.Abs(s.StdDev()-2.0) > 1e-9 {
		t.Errorf("StdDev = %v, want 2", s.StdDev())
	}
	var one Summary
	one.Add(42)
	if one.StdDev() != 0 { //vc2m:floateq StdDev assigns 0 below two observations
		t.Error("StdDev of a single observation should be 0")
	}
}

// TestSummaryStdDevLargeOffset is the regression test for the catastrophic
// cancellation in the pre-Welford sum2/n - mean^2 formula: nanosecond-scale
// observations (magnitude 1e9, variance well below 1) produced a sum of
// squares around 3e18, where float64 resolution is ~512 — the subtraction
// left essentially no significant digits. Welford's algorithm keeps full
// precision.
func TestSummaryStdDevLargeOffset(t *testing.T) {
	var s Summary
	for _, x := range []float64{1e9, 1e9 + 1, 1e9 + 2} {
		s.Add(x)
	}
	// Population stddev of {0, 1, 2} shifted by 1e9: sqrt(2/3).
	want := math.Sqrt(2.0 / 3.0)
	if got := s.StdDev(); math.Abs(got-want) > 1e-6 {
		t.Errorf("StdDev of 1e9+{0,1,2} = %v, want %v", got, want)
	}
	if got := s.Mean(); math.Abs(got-(1e9+1)) > 1e-6 {
		t.Errorf("Mean = %v, want 1e9+1", got)
	}

	// Larger offset, same shape: stays exact with Welford, and the old
	// formula's clamp-at-zero guard would have hidden the failure as 0.
	var s2 Summary
	for _, x := range []float64{1e12, 1e12 + 2, 1e12 + 4} {
		s2.Add(x)
	}
	want2 := 2 * math.Sqrt(2.0/3.0)
	if got := s2.StdDev(); math.Abs(got-want2) > 1e-3 {
		t.Errorf("StdDev of 1e12+{0,2,4} = %v, want %v", got, want2)
	}
}

func TestSummaryInvariants(t *testing.T) {
	f := func(raw []int32) bool {
		var s Summary
		ok := true
		for _, v := range raw {
			s.Add(float64(v) / 1000.0)
		}
		if s.N() > 0 {
			ok = ok && s.Min() <= s.Mean()+1e-9 && s.Mean() <= s.Max()+1e-9
			ok = ok && s.StdDev() >= 0
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummaryRow(t *testing.T) {
	var s Summary
	s.Add(0.33)
	s.Add(1.15)
	got := s.Row("%.2f")
	want := "0.33 | 0.74 | 1.15"
	if got != want {
		t.Errorf("Row = %q, want %q", got, want)
	}
}

func TestSampleEmpty(t *testing.T) {
	var p Sample
	if p.Percentile(50) != 0 { //vc2m:floateq an empty sample returns an assigned 0
		t.Error("empty Sample percentile should be 0")
	}
}

func TestSamplePercentiles(t *testing.T) {
	var p Sample
	for i := 1; i <= 100; i++ {
		p.Add(float64(i))
	}
	cases := []struct{ q, want float64 }{
		{0, 1},
		{100, 100},
		{50, 50.5},
	}
	for _, c := range cases {
		if got := p.Percentile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestSamplePercentileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		var p Sample
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			p.Add(x)
		}
		if p.N() == 0 {
			return true
		}
		prev := p.Percentile(0)
		for q := 5.0; q <= 100; q += 5 {
			cur := p.Percentile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleAddAfterPercentile(t *testing.T) {
	var p Sample
	p.Add(10)
	_ = p.Percentile(50)
	// The late Add must re-sort internally.
	p.Add(1)
	if got := p.Percentile(0); got != 1 { //vc2m:floateq the 0th percentile is the smallest observation, returned verbatim
		t.Errorf("Percentile(0) after late Add = %v, want 1", got)
	}
}

func TestSampleSummary(t *testing.T) {
	var p Sample
	p.Add(2)
	p.Add(8)
	s := p.Summary()
	if s.Min() != 2 || s.Max() != 8 { //vc2m:floateq min and max are integer-valued observations stored verbatim
		t.Errorf("Sample.Summary min/max = %v/%v, want 2/8", s.Min(), s.Max())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Errorf("Sample.Summary mean = %v, want 5", s.Mean())
	}
}
