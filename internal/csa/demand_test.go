package csa

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"vc2m/internal/model"
	"vc2m/internal/rngutil"
)

// sameBits reports whether two float slices hold the same values, bit for
// bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// demandRef is the map-based construction NewDemand used before it
// collected checkpoints into one sorted slice: every multiple of every
// task's period (duplicates included) into a set, the budget checked
// against the running count of all of them, then the set sorted. It is
// the oracle for the checkpoints and floor counts the production
// construction must reproduce bit for bit.
func demandRef(periods []float64) (cps, counts []float64, groupOf []int, err error) {
	if len(periods) == 0 {
		return nil, nil, nil, errors.New("csa: NewDemand with no tasks")
	}
	for _, p := range periods {
		if p <= 0 {
			return nil, nil, nil, fmt.Errorf("csa: non-positive period %v", p)
		}
	}
	hyper, err := hyperperiod(periods)
	if err != nil {
		return nil, nil, nil, err
	}
	set := map[float64]bool{}
	total := 0
	for _, p := range periods {
		n := int(math.Floor(hyper/p + 1e-9))
		total += n
		if total > maxCheckpoints {
			return nil, nil, nil, ErrHyperperiodTooLarge
		}
		for k := 1; k <= n; k++ {
			set[float64(k)*p] = true
		}
	}
	for t := range set { //vc2m:ordered checkpoints are sorted below
		cps = append(cps, t)
	}
	sort.Float64s(cps)
	var uniq []float64
	groupOf = make([]int, len(periods))
	for i, p := range periods {
		j := 0
		for ; j < len(uniq) && math.Float64bits(uniq[j]) != math.Float64bits(p); j++ {
		}
		if j == len(uniq) {
			uniq = append(uniq, p)
		}
		groupOf[i] = j
	}
	for _, t := range cps {
		for _, p := range uniq {
			counts = append(counts, math.Floor(t/p+1e-9))
		}
	}
	return cps, counts, groupOf, nil
}

// checkDemandMatchesRef compares d (just built or Reset from periods)
// with the map-based reference: the same error, or bit-equal checkpoints,
// floor counts and task grouping.
func checkDemandMatchesRef(t *testing.T, d *Demand, err error, periods []float64) {
	t.Helper()
	cps, counts, groupOf, refErr := demandRef(periods)
	if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
		t.Fatalf("periods %v: error %v, reference %v", periods, err, refErr)
	}
	if err != nil {
		return
	}
	if !sameBits(d.checkpoints, cps) {
		t.Fatalf("periods %v: checkpoints %v, reference %v", periods, d.checkpoints, cps)
	}
	if !sameBits(d.counts, counts) {
		t.Fatalf("periods %v: %d floor counts differ from the reference's %d", periods, len(d.counts), len(counts))
	}
	if fmt.Sprint(d.groupOf) != fmt.Sprint(groupOf) || len(d.groupSums) != len(d.uniq) {
		t.Fatalf("periods %v: grouping %v (%d sums), reference %v", periods, d.groupOf, len(d.groupSums), groupOf)
	}
}

// TestNewDemandMatchesMapReference drives NewDemand and one reused Demand
// through harmonic ladders, non-harmonic and duplicate periods, and the
// ErrHyperperiodTooLarge edge, against the map-based construction.
func TestNewDemandMatchesMapReference(t *testing.T) {
	fixed := [][]float64{
		{10, 20, 40},
		{40, 10, 20, 10, 40},
		{2, 3},
		{3, 2, 3, 2, 5},
		{107.325, 214.65, 429.3, 107.325},
		{0.1, 0.3, 0.7},
		{1, 99999},        // exactly maxCheckpoints multiples: accepted
		{1, 99999, 99999}, // one more counted duplicate: rejected
		{1000.001, 999.9990001, 997.77, 1001.3},
		{10, -1},
		nil,
	}
	rng := rngutil.New(25)
	var cases [][]float64
	cases = append(cases, fixed...)
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(8)
		ps := make([]float64, n)
		base := []float64{10, 12.5, 107.325, 3}[rng.Intn(4)]
		for j := range ps {
			if i%3 == 0 {
				ps[j] = float64(2 + rng.Intn(30)) // mostly non-harmonic
			} else {
				ps[j] = base * float64(int(1)<<rng.Intn(6))
			}
		}
		cases = append(cases, ps)
	}
	if _, err := NewDemand([]float64{1, 99999}); err != nil {
		t.Errorf("maxCheckpoints multiples rejected: %v", err)
	}
	if _, err := NewDemand([]float64{1, 99999, 99999}); !errors.Is(err, ErrHyperperiodTooLarge) {
		t.Errorf("maxCheckpoints+1 counted multiples: got %v, want ErrHyperperiodTooLarge", err)
	}
	var reused Demand
	for _, ps := range cases {
		d, err := NewDemand(ps)
		checkDemandMatchesRef(t, d, err, ps)
		checkDemandMatchesRef(t, &reused, reused.Reset(ps), ps)
	}
}

func TestNewDemandHarmonic(t *testing.T) {
	d, err := NewDemand([]float64{10, 20, 40})
	if err != nil {
		t.Fatal(err)
	}
	// Hyperperiod = 40; checkpoints = {10,20,30,40} from p=10, {20,40} from
	// p=20, {40} from p=40, deduplicated.
	want := []float64{10, 20, 30, 40}
	got := d.Checkpoints()
	if len(got) != len(want) {
		t.Fatalf("checkpoints = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("checkpoint[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestNewDemandNonHarmonic(t *testing.T) {
	d, err := NewDemand([]float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Hyperperiod = 6; checkpoints {2,3,4,6}.
	got := d.Checkpoints()
	want := []float64{2, 3, 4, 6}
	if len(got) != len(want) {
		t.Fatalf("checkpoints = %v, want %v", got, want)
	}
}

func TestNewDemandErrors(t *testing.T) {
	if _, err := NewDemand(nil); err == nil {
		t.Error("empty taskset accepted")
	}
	if _, err := NewDemand([]float64{10, -1}); err == nil {
		t.Error("negative period accepted")
	}
	// Co-prime large periods explode the hyperperiod.
	if _, err := NewDemand([]float64{1000.001, 999.9990001, 997.77, 1001.3}); !errors.Is(err, ErrHyperperiodTooLarge) {
		t.Errorf("expected ErrHyperperiodTooLarge, got %v", err)
	}
}

func TestDBFValues(t *testing.T) {
	d, err := NewDemand([]float64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoints: 10, 20. WCETs 1 and 4.
	dem := d.DBF([]float64{1, 4})
	// dbf(10) = 1*1 + 0*4 = 1; dbf(20) = 2*1 + 1*4 = 6.
	if math.Abs(dem[0]-1) > 1e-9 || math.Abs(dem[1]-6) > 1e-9 {
		t.Errorf("DBF = %v, want [1 6]", dem)
	}
}

func TestDBFAt(t *testing.T) {
	d, err := NewDemand([]float64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.DBFAt([]float64{1, 4}, 15); math.Abs(got-1) > 1e-9 {
		t.Errorf("DBFAt(15) = %v, want 1", got)
	}
	if got := d.DBFAt([]float64{1, 4}, 40); math.Abs(got-12) > 1e-9 {
		t.Errorf("DBFAt(40) = %v, want 12", got)
	}
}

func TestDBFPanicsOnLengthMismatch(t *testing.T) {
	d, _ := NewDemand([]float64{10})
	defer func() {
		if recover() == nil {
			t.Error("DBF with wrong length did not panic")
		}
	}()
	d.DBF([]float64{1, 2})
}

func TestHarmonicPeriods(t *testing.T) {
	cases := []struct {
		ps   []float64
		want bool
	}{
		{[]float64{100, 200, 400, 800}, true},
		{[]float64{100}, true},
		{nil, true},
		{[]float64{110.5, 221, 442}, true},
		{[]float64{100, 300}, true},
		{[]float64{100, 150}, false},
		{[]float64{100, 0}, false},
		{[]float64{3, 5}, false},
	}
	for _, c := range cases {
		if got := HarmonicPeriods(c.ps); got != c.want {
			t.Errorf("HarmonicPeriods(%v) = %v, want %v", c.ps, got, c.want)
		}
	}
}

func TestHarmonicPeriodsDoublingChain(t *testing.T) {
	// Generated the same way the workload generator produces periods.
	base := 107.325
	ps := []float64{base, base * 2, base * 4, base * 8}
	if !HarmonicPeriods(ps) {
		t.Error("doubling chain not recognized as harmonic")
	}
}

func TestTaskVectors(t *testing.T) {
	p := model.PlatformA
	tasks := []*model.Task{
		model.SimpleTask("t1", p, 10, 1),
		model.SimpleTask("t2", p, 20, 2),
	}
	if ps := TaskPeriods(tasks); !sameBits(ps, []float64{10, 20}) {
		t.Errorf("TaskPeriods = %v", ps)
	}
	if es := TaskWCETs(tasks, 2, 1); !sameBits(es, []float64{1, 2}) {
		t.Errorf("TaskWCETs = %v", es)
	}
}

func TestDemandCheckpointsShared(t *testing.T) {
	d, _ := NewDemand([]float64{10, 20})
	a := d.Checkpoints()
	b := d.Checkpoints()
	if &a[0] != &b[0] {
		t.Error("Checkpoints should return the shared slice (documented)")
	}
}

// TestDemandResetAllocatesNothing pins the reuse Baseline relies on:
// once a Demand's buffers have grown, Reset to a period vector that fits
// them allocates nothing.
func TestDemandResetAllocatesNothing(t *testing.T) {
	var d Demand
	big, small := []float64{10, 20, 40, 80, 160, 20}, []float64{20, 40, 40}
	if err := d.Reset(big); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := d.Reset(small); err != nil {
			t.Fatal(err)
		}
		if err := d.Reset(big); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("Reset allocates %v times per pair of calls, want 0", allocs)
	}
	checkDemandMatchesRef(t, &d, nil, big)
}
