package experiment

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"vc2m/internal/model"
	"vc2m/internal/workload"
)

// TestUtilGridExact checks the sweep grid is generated from min + i*step
// rather than accumulation: every point must be within one ulp-scale
// tolerance of the ideal value and the endpoint must be included.
func TestUtilGridExact(t *testing.T) {
	cases := []struct {
		min, max, step float64
		want           int
	}{
		{0.1, 2.0, 0.05, 39},
		{0.1, 2.0, 0.025, 77},
		{0, 1, 0.1, 11},
		{0.5, 0.5, 0.1, 1},
		{0.2, 2.0, 0.2, 10},
	}
	for _, c := range cases {
		got := utilGrid(c.min, c.max, c.step)
		if len(got) != c.want {
			t.Errorf("utilGrid(%v,%v,%v): %d points, want %d", c.min, c.max, c.step, len(got), c.want)
			continue
		}
		for i, u := range got {
			ideal := c.min + float64(i)*c.step
			if math.Abs(u-ideal) > 1e-12 {
				t.Errorf("utilGrid(%v,%v,%v)[%d] = %v, want %v", c.min, c.max, c.step, i, u, ideal)
			}
		}
		if last := got[len(got)-1]; math.Abs(last-c.max) > 1e-9 {
			t.Errorf("utilGrid(%v,%v,%v) ends at %v, want the endpoint", c.min, c.max, c.step, last)
		}
	}
}

// TestUtilGridRoundsProduct pins the default grid's bits at points, found
// by search, where a fused multiply-add of min + i*step changes the last
// bit: the explicit conversion rounds the product, so the sweep's
// utilizations do not depend on whether the compiler fuses the two.
func TestUtilGridRoundsProduct(t *testing.T) {
	got := utilGrid(0.1, 2.0, 0.05)
	for _, c := range []struct {
		i    int
		bits uint64
	}{
		{5, 0x3fd6666666666666},  // 0.35; fused 0.35000000000000003
		{23, 0x3ff4000000000001}, // 1.2500000000000002; fused 1.25
	} {
		if b := math.Float64bits(got[c.i]); b != c.bits {
			t.Errorf("utilGrid(0.1,2.0,0.05)[%d] bits %#x (%v), want %#x", c.i, b, got[c.i], c.bits)
		}
	}
}

// TestUtilGridNoDuplicates is the regression for the accumulated-and-
// rounded grid: with step 0.025, rounding to two decimals used to collapse
// neighbouring points into duplicates.
func TestUtilGridNoDuplicates(t *testing.T) {
	got := utilGrid(0.1, 2.0, 0.025)
	seen := map[float64]bool{}
	for _, u := range got {
		if seen[u] {
			t.Fatalf("duplicate grid point %v", u)
		}
		seen[u] = true
	}
}

// TestWithDefaultsUtilMinZero checks an explicit sweep starting at 0 is
// honoured: UtilMin defaults to 0.1 only when the whole range is unset.
func TestWithDefaultsUtilMinZero(t *testing.T) {
	c := SchedConfig{UtilMin: 0, UtilMax: 0.4, UtilStep: 0.2}.withDefaults()
	if c.UtilMin != 0 { //vc2m:floateq withDefaults either keeps the literal or assigns one; nothing is computed
		t.Errorf("explicit UtilMin 0 rewritten to %v", c.UtilMin)
	}
	d := SchedConfig{}.withDefaults()
	if d.UtilMin != 0.1 || d.UtilMax != 2.0 || d.UtilStep != 0.05 { //vc2m:floateq defaults are assigned from these literals; nothing is computed
		t.Errorf("zero config defaults = (%v, %v, %v), want (0.1, 2.0, 0.05)",
			d.UtilMin, d.UtilMax, d.UtilStep)
	}
}

// TestRunSchedulabilityRejectsBadRange checks the new validation errors.
func TestRunSchedulabilityRejectsBadRange(t *testing.T) {
	base := SchedConfig{Platform: model.PlatformA, TasksetsPerPoint: 1}
	bad := base
	bad.UtilMin, bad.UtilMax, bad.UtilStep = 1.0, 2.0, -0.1
	if _, err := RunSchedulability(bad); err == nil {
		t.Error("negative UtilStep accepted")
	}
	bad = base
	bad.UtilMin, bad.UtilMax, bad.UtilStep = 2.0, 1.0, 0.1
	if _, err := RunSchedulability(bad); err == nil {
		t.Error("UtilMax < UtilMin accepted")
	}
}

// raggedResult builds a hand-assembled result whose series have different
// lengths — the shape that used to panic table() and writeCSV().
func raggedResult() *SchedResult {
	return &SchedResult{
		Platform: model.PlatformA,
		Dist:     workload.Uniform,
		Series: []SchedSeries{
			{Solution: "long", Points: []SchedPoint{{Util: 0.2, Fraction: 1}, {Util: 0.4, Fraction: 0.5}}},
			{Solution: "short", Points: []SchedPoint{{Util: 0.2, Fraction: 1}}},
		},
	}
}

// TestTableRagged checks ragged series render the common prefix instead of
// panicking.
func TestTableRagged(t *testing.T) {
	r := raggedResult()
	got := r.FractionTable()
	if !strings.Contains(got, "0.20") {
		t.Errorf("common row missing:\n%s", got)
	}
	if strings.Contains(got, "0.40") {
		t.Errorf("row beyond the shortest series rendered:\n%s", got)
	}
}

// TestWriteCSVRagged checks the CSV writer on the same ragged result.
func TestWriteCSVRagged(t *testing.T) {
	r := raggedResult()
	var buf bytes.Buffer
	if err := r.WriteFractionsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 { // header + one common row
		t.Errorf("got %d CSV lines, want 2:\n%s", len(lines), buf.String())
	}
}

// TestCollectMetricsParallel runs a metered sweep with parallel workers
// twice and requires bit-identical counters: int64 counter sums commute,
// so worker interleaving must not show up in the snapshot.
func TestCollectMetricsParallel(t *testing.T) {
	runOnce := func() *SchedResult {
		t.Helper()
		res, err := RunSchedulability(SchedConfig{
			Platform:         model.PlatformA,
			Dist:             workload.Uniform,
			UtilMin:          0.4,
			UtilMax:          0.8,
			UtilStep:         0.4,
			TasksetsPerPoint: 4,
			Seed:             1,
			Parallel:         4,
			CollectMetrics:   true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := runOnce(), runOnce()
	for si := range a.Series {
		if a.Series[si].Metrics.Empty() {
			t.Fatalf("series %s collected no metrics", a.Series[si].Solution)
		}
		ca, cb := a.Series[si].Metrics.Counters, b.Series[si].Metrics.Counters
		if len(ca) != len(cb) {
			t.Fatalf("series %s: counter sets differ", a.Series[si].Solution)
		}
		for _, name := range sortedKeys(ca) {
			if v := ca[name]; cb[name] != v {
				t.Errorf("series %s: %s = %d vs %d across runs",
					a.Series[si].Solution, name, v, cb[name])
			}
		}
		if ca[MetricPoints] != 2 || ca[MetricTasksets] != 8 {
			t.Errorf("series %s: points/tasksets = %d/%d, want 2/8",
				a.Series[si].Solution, ca[MetricPoints], ca[MetricTasksets])
		}
	}
	if !strings.Contains(a.MetricsTable(), "## ") {
		t.Errorf("MetricsTable missing solution headers:\n%s", a.MetricsTable())
	}
	var buf bytes.Buffer
	if err := a.WriteMetricsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got < 6 {
		t.Errorf("metrics CSV has %d lines, want rows for every solution:\n%s", got, buf.String())
	}
}
