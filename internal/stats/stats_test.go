package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Min() != 0 || s.Max() != 0 || s.Mean() != 0 { //vc2m:floateq an empty summary returns assigned zeros, never computed ones
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

func TestSummaryInvariants(t *testing.T) {
	f := func(raw []int32) bool {
		var s Summary
		ok := true
		for _, v := range raw {
			s.Add(float64(v) / 1000.0)
		}
		if s.N() > 0 {
			ok = ok && s.Min() <= s.Mean()+1e-9 && s.Mean() <= s.Max()+1e-9
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
	if p.N() != 0 {
		t.Errorf("empty Sample N = %d, want 0", p.N())
	}
	if s := p.Summary(); s.N() != 0 {
		t.Errorf("empty Sample summarizes %d observations, want 0", s.N())
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
