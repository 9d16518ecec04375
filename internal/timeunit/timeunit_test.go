package timeunit

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFromMillisRoundTrip(t *testing.T) {
	cases := []struct {
		ms   float64
		want Ticks
	}{
		{0, 0},
		{1, 1000},
		{0.001, 1},
		{0.0004, 0},   // rounds down
		{0.0006, 1},   // rounds up
		{100, 100000}, // typical task period
		{1100, 1100000},
		{5.5, 5500},
	}
	for _, c := range cases {
		if got := FromMillis(c.ms); got != c.want {
			t.Errorf("FromMillis(%v) = %v, want %v", c.ms, got, c.want)
		}
	}
}

func TestFromMillisCeilNeverUndershoots(t *testing.T) {
	f := func(raw uint32) bool {
		ms := float64(raw) / 97.0 // arbitrary fractional milliseconds
		got := FromMillisCeil(ms)
		return got.Millis() >= ms-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromMillisFloor(t *testing.T) {
	cases := []struct {
		ms   float64
		want Ticks
	}{
		{1.0009, 1000},
		{0.0004, 0},
		{0.9999, 999},
		{5.5, 5500},
	}
	for _, c := range cases {
		if got := FromMillisFloor(c.ms); got != c.want {
			t.Errorf("FromMillisFloor(%v) = %v, want %v", c.ms, got, c.want)
		}
	}
	// Floor never exceeds round, never below round-1.
	f := func(raw uint32) bool {
		ms := float64(raw) / 131.0
		fl, rd := FromMillisFloor(ms), FromMillis(ms)
		return fl <= rd && fl >= rd-1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLCMOverflow(t *testing.T) {
	big := int64(1) << 62
	if _, ok := LCMChecked(big, big-1); ok {
		t.Error("LCMChecked accepted an overflowing pair")
	}
	if _, ok := LCMAllChecked([]int64{big, big - 1, 7}); ok {
		t.Error("LCMAllChecked accepted an overflowing sequence")
	}
	defer func() {
		if recover() == nil {
			t.Error("LCM did not panic on overflow")
		}
	}()
	LCM(big, big-1)
}

func TestLCMAllPanicsOnOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("LCMAll did not panic on overflow")
		}
	}()
	LCMAll([]int64{1 << 62, (1 << 62) - 1})
}

func TestLCMCheckedZero(t *testing.T) {
	if v, ok := LCMChecked(0, 5); !ok || v != 0 {
		t.Errorf("LCMChecked(0,5) = %v, %v", v, ok)
	}
	if v, ok := LCMChecked(-4, 6); !ok || v != 12 {
		t.Errorf("LCMChecked(-4,6) = %v, %v, want 12", v, ok)
	}
}

func TestMillis(t *testing.T) {
	if got := Ticks(5500).Millis(); math.Float64bits(got) != math.Float64bits(5.5) {
		t.Errorf("Ticks(5500).Millis() = %v, want 5.5", got)
	}
}

func TestString(t *testing.T) {
	if got := Ticks(1234).String(); got != "1.234ms" {
		t.Errorf("String() = %q, want \"1.234ms\"", got)
	}
}

func TestGCD(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{12, 18, 6},
		{18, 12, 6},
		{0, 7, 7},
		{7, 0, 7},
		{0, 0, 0},
		{-12, 18, 6},
		{12, -18, 6},
		{13, 7, 1},
		{100, 100, 100},
	}
	for _, c := range cases {
		if got := GCD(c.a, c.b); got != c.want {
			t.Errorf("GCD(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLCM(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{4, 6, 12},
		{0, 5, 0},
		{5, 0, 0},
		{100, 200, 200},
		{100, 400, 400},
		{3, 7, 21},
	}
	for _, c := range cases {
		if got := LCM(c.a, c.b); got != c.want {
			t.Errorf("LCM(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLCMProperties(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := int64(a)+1, int64(b)+1
		l := LCM(x, y)
		return l%x == 0 && l%y == 0 && l >= x && l >= y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLCMAll(t *testing.T) {
	if got := LCMAll([]int64{100, 200, 400, 800}); got != 800 {
		t.Errorf("LCMAll harmonic = %d, want 800", got)
	}
	if got := LCMAll(nil); got != 0 {
		t.Errorf("LCMAll(nil) = %d, want 0", got)
	}
	if got := LCMAll([]int64{6, 10, 15}); got != 30 {
		t.Errorf("LCMAll([6,10,15]) = %d, want 30", got)
	}
}

func TestHyperperiod(t *testing.T) {
	got := Hyperperiod([]Ticks{100000, 200000, 400000})
	if got != 400000 {
		t.Errorf("Hyperperiod = %v, want 400000", got)
	}
}

func TestHarmonic(t *testing.T) {
	cases := []struct {
		vs   []int64
		want bool
	}{
		{[]int64{100, 200, 400}, true},
		{[]int64{100}, true},
		{nil, true},
		{[]int64{100, 300, 600}, true},
		{[]int64{100, 150}, false},
		{[]int64{2, 3}, false},
		{[]int64{0, 2}, false},  // non-positive periods are not harmonic
		{[]int64{-2, 4}, false}, // negative periods rejected
		{[]int64{7, 7, 7}, true},
	}
	for _, c := range cases {
		if got := Harmonic(c.vs); got != c.want {
			t.Errorf("Harmonic(%v) = %v, want %v", c.vs, got, c.want)
		}
	}
}

func TestHarmonicChainProperty(t *testing.T) {
	// A doubling chain from any positive base is always harmonic.
	f := func(base uint16, n uint8) bool {
		b := int64(base) + 1
		k := int(n%5) + 1
		vs := make([]int64, k)
		for i := range vs {
			vs[i] = b << uint(i)
		}
		return Harmonic(vs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual(1.0, 1.0+1e-12, 1e-9) {
		t.Error("AlmostEqual should accept tiny differences")
	}
	if AlmostEqual(1.0, 1.1, 1e-9) {
		t.Error("AlmostEqual should reject large differences")
	}
	if !AlmostEqual(-1, -1, 0) {
		t.Error("AlmostEqual exact match failed")
	}
}

func TestMaxTicks(t *testing.T) {
	if MaxTicks != Ticks(math.MaxInt64) {
		t.Error("MaxTicks is not MaxInt64")
	}
}

func TestDimensionlessHelpers(t *testing.T) {
	// Count/FromCount/Ratio/Scale are the blessed dimensionless escape
	// hatches; each must stay bit-identical to the raw conversion it
	// replaces, so swapping one in never perturbs simulation results.
	for _, v := range []Ticks{0, 1, 999, 123456789, -42} {
		if got := v.Count(); math.Float64bits(got) != math.Float64bits(float64(v)) {
			t.Errorf("Ticks(%d).Count() = %v, want %v", int64(v), got, float64(v))
		}
	}
	for _, f := range []float64{0, 1, 0.4, 0.6, 1234.9, -7.5} {
		if got := FromCount(f); got != Ticks(f) {
			t.Errorf("FromCount(%v) = %v, want %v", f, got, Ticks(f))
		}
	}
	if got := Ratio(1, 3); math.Float64bits(got) != math.Float64bits(float64(1)/float64(3)) {
		t.Errorf("Ratio(1, 3) = %v", got)
	}
	if got := Ratio(0, 7); math.Float64bits(got) != 0 {
		t.Errorf("Ratio(0, 7) = %v, want 0", got)
	}
	for _, c := range []struct {
		t Ticks
		f float64
	}{{1000, 1.5}, {7, 0.1}, {123456, 0.9999}, {-10, 2.5}} {
		if got, want := c.t.Scale(c.f), Ticks(float64(c.t)*c.f); got != want {
			t.Errorf("Ticks(%d).Scale(%v) = %v, want %v", int64(c.t), c.f, got, want)
		}
	}
}
