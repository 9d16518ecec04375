package csa

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConstrainedDemandReducesToImplicit(t *testing.T) {
	// With d = p the constrained dbf must equal the implicit-deadline dbf
	// everywhere.
	periods := []float64{10, 20, 40}
	wcets := []float64{1, 3, 5}
	impl, err := NewDemand(periods)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := NewConstrainedDemand(periods, periods)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{5, 10, 15, 20, 30, 40, 55, 80} {
		a := impl.DBFAt(wcets, tt)
		b := cons.DBFAt(wcets, tt)
		if math.Abs(a-b) > 1e-9 {
			t.Errorf("dbf(%v): implicit %v != constrained %v", tt, a, b)
		}
	}
}

func TestConstrainedDemandKnownValues(t *testing.T) {
	// One task (p=10, d=4, e=2): demand appears at 4, 14, 24, ...
	d, err := NewConstrainedDemand([]float64{10}, []float64{4})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ t, want float64 }{
		{3.9, 0},
		{4, 2},
		{13.9, 2},
		{14, 4},
		{24, 6},
	}
	for _, c := range cases {
		if got := d.DBFAt([]float64{2}, c.t); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("dbf(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestConstrainedDemandCheckpoints(t *testing.T) {
	d, err := NewConstrainedDemand([]float64{10}, []float64{4})
	if err != nil {
		t.Fatal(err)
	}
	cps := d.Checkpoints()
	if math.Float64bits(cps[0]) != math.Float64bits(4) {
		t.Errorf("first checkpoint %v, want 4 (the first deadline)", cps[0])
	}
	for i := 1; i < len(cps); i++ {
		if cps[i] <= cps[i-1] {
			t.Fatal("checkpoints not strictly increasing")
		}
		if math.Mod(cps[i]-4, 10) > 1e-9 {
			t.Errorf("checkpoint %v is not of the form k*10+4", cps[i])
		}
	}
}

func TestConstrainedDemandValidation(t *testing.T) {
	if _, err := NewConstrainedDemand(nil, nil); err == nil {
		t.Error("empty taskset accepted")
	}
	if _, err := NewConstrainedDemand([]float64{10}, []float64{4, 5}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewConstrainedDemand([]float64{10}, []float64{0}); err == nil {
		t.Error("zero deadline accepted")
	}
	if _, err := NewConstrainedDemand([]float64{10}, []float64{11}); err == nil {
		t.Error("deadline above period accepted (arbitrary deadlines unsupported)")
	}
	if _, err := NewConstrainedDemand([]float64{-1}, []float64{1}); err == nil {
		t.Error("negative period accepted")
	}
}

func TestConstrainedDBFMonotoneProperty(t *testing.T) {
	f := func(dRaw, eRaw uint8) bool {
		p := 20.0
		d := 1 + float64(dRaw%19)
		e := 0.1 + float64(eRaw%10)/10
		dem, err := NewConstrainedDemand([]float64{p}, []float64{d})
		if err != nil {
			return false
		}
		prev := -1.0
		for t := 0.0; t <= 100; t += 1.7 {
			cur := dem.DBFAt([]float64{e}, t)
			if cur < prev-1e-9 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestConstrainedDBFPanicsOnBadLength(t *testing.T) {
	d, _ := NewConstrainedDemand([]float64{10}, []float64{5})
	for _, fn := range []func(){
		func() { d.DBF([]float64{1, 2}) },
		func() { d.DBFAt([]float64{1, 2}, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("length mismatch did not panic")
				}
			}()
			fn()
		}()
	}
}
