package parsec

import (
	"math"
	"testing"
	"testing/quick"

	"vc2m/internal/model"
)

func TestByName(t *testing.T) {
	bm, err := ByName("streamcluster")
	if err != nil {
		t.Fatal(err)
	}
	if bm.Name != "streamcluster" {
		t.Errorf("ByName returned %q", bm.Name)
	}
	if _, err := ByName("doom"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestNames(t *testing.T) {
	names := Names()
	if len(names) != len(All) {
		t.Fatalf("Names() returned %d entries, want %d", len(names), len(All))
	}
	if names[0] != "blackscholes" || names[len(names)-1] != "x264" {
		t.Errorf("unexpected suite order: %v", names)
	}
}

func TestAllParametersSane(t *testing.T) {
	for _, bm := range All {
		if bm.CPUFrac <= 0 || bm.CPUFrac > 1 {
			t.Errorf("%s: CPUFrac %v outside (0,1]", bm.Name, bm.CPUFrac)
		}
		if bm.MissInflation < 1 {
			t.Errorf("%s: MissInflation %v below 1", bm.Name, bm.MissInflation)
		}
		if bm.WorkingSet <= 0 {
			t.Errorf("%s: WorkingSet %v not positive", bm.Name, bm.WorkingSet)
		}
		if bm.BWSat < 1 {
			t.Errorf("%s: BWSat %v below 1", bm.Name, bm.BWSat)
		}
		if bm.Gamma <= 0 {
			t.Errorf("%s: Gamma %v not positive", bm.Name, bm.Gamma)
		}
	}
}

func TestProfileReferenceIsOne(t *testing.T) {
	for _, p := range []model.Platform{model.PlatformA, model.PlatformB, model.PlatformC} {
		for _, bm := range All {
			prof := bm.Profile(p)
			if math.Abs(prof.Reference()-1) > 1e-12 {
				t.Errorf("%s on %s: s(C,B) = %v, want 1", bm.Name, p.Name, prof.Reference())
			}
		}
	}
}

func TestProfileMonotone(t *testing.T) {
	for _, p := range []model.Platform{model.PlatformA, model.PlatformC} {
		for _, bm := range All {
			if err := bm.Profile(p).CheckMonotone(); err != nil {
				t.Errorf("%s on %s: %v", bm.Name, p.Name, err)
			}
		}
	}
}

func TestProfileAtLeastOne(t *testing.T) {
	p := model.PlatformA
	for _, bm := range All {
		prof := bm.Profile(p)
		for c := p.Cmin; c <= p.C; c++ {
			for b := p.Bmin; b <= p.B; b++ {
				if prof.At(c, b) < 1-1e-12 {
					t.Fatalf("%s: slowdown %v < 1 at (%d,%d)", bm.Name, prof.At(c, b), c, b)
				}
			}
		}
	}
}

func TestMaxSlowdownDominatesProfile(t *testing.T) {
	// s^max (cache disabled, worst BW) must be at least the slowdown at
	// the worst allocatable configuration (Cmin, Bmin).
	p := model.PlatformA
	for _, bm := range All {
		smax := bm.MaxSlowdown(p)
		worst := bm.Profile(p).At(p.Cmin, p.Bmin)
		if smax < worst-1e-12 {
			t.Errorf("%s: MaxSlowdown %v below profile worst %v", bm.Name, smax, worst)
		}
	}
}

func TestMaxSlowdownMagnitudes(t *testing.T) {
	// Sanity band: disabling the cache entirely and taking worst-case
	// bandwidth inflates PARSEC execution times by roughly 2x-7x on the
	// reference machine. The suite mean near 4x is what positions the
	// baseline's schedulability knee around reference utilization 0.5.
	p := model.PlatformA
	var sum float64
	for _, bm := range All {
		smax := bm.MaxSlowdown(p)
		if smax < 1.5 || smax > 8.0 {
			t.Errorf("%s: MaxSlowdown %v outside plausibility band [1.5, 8]", bm.Name, smax)
		}
		sum += smax
	}
	mean := sum / float64(len(All))
	if mean < 3.0 || mean > 5.5 {
		t.Errorf("suite mean MaxSlowdown %v outside [3, 5.5]", mean)
	}
}

func TestComputeVsMemoryBoundOrdering(t *testing.T) {
	// The memory-bound benchmarks must be strictly more sensitive than the
	// compute-bound ones, which drives the clustering in the allocator.
	p := model.PlatformA
	sc, _ := ByName("streamcluster")
	sw, _ := ByName("swaptions")
	cn, _ := ByName("canneal")
	bs, _ := ByName("blackscholes")
	if sc.MaxSlowdown(p) <= sw.MaxSlowdown(p) {
		t.Error("streamcluster should be more sensitive than swaptions")
	}
	if cn.MaxSlowdown(p) <= bs.MaxSlowdown(p) {
		t.Error("canneal should be more sensitive than blackscholes")
	}
	// Compute-bound benchmarks are far less sensitive than memory-bound
	// ones (even they suffer ~2x with the cache disabled entirely, since
	// instruction fetches also miss).
	if sw.MaxSlowdown(p) > 2.0 {
		t.Errorf("swaptions MaxSlowdown = %v, want <= 2.0", sw.MaxSlowdown(p))
	}
	if prof := sw.Profile(p); prof.At(p.Cmin, p.Bmin) > 1.3 {
		t.Errorf("swaptions in-range slowdown = %v, want nearly flat (<= 1.3)",
			prof.At(p.Cmin, p.Bmin))
	}
}

func TestRawPanicsOnBadBandwidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Raw(c, 0) did not panic")
		}
	}()
	All[0].Raw(5, 0)
}

func TestWCETTableScaling(t *testing.T) {
	p := model.PlatformA
	bm, _ := ByName("ferret")
	tab := bm.WCETTable(p, 7)
	if math.Abs(tab.Reference()-7) > 1e-9 {
		t.Errorf("WCETTable reference = %v, want 7", tab.Reference())
	}
	prof := bm.Profile(p)
	if math.Abs(tab.At(3, 2)-7*prof.At(3, 2)) > 1e-9 {
		t.Error("WCETTable is not a scaled profile")
	}
}

func TestMissFactorBounds(t *testing.T) {
	f := func(cRaw uint8) bool {
		for _, bm := range All {
			c := int(cRaw % 21)
			mu := bm.missFactor(c)
			if mu < 1-1e-12 || mu > bm.MissInflation+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBWFactorSaturates(t *testing.T) {
	for _, bm := range All {
		if got := bm.bwFactor(20); math.Float64bits(got) != math.Float64bits(1) {
			t.Errorf("%s: bwFactor(20) = %v, want 1", bm.Name, got)
		}
		if got := bm.bwFactor(1); math.Abs(got-bm.BWSat) > 1e-12 && bm.BWSat > 1 {
			t.Errorf("%s: bwFactor(1) = %v, want %v", bm.Name, got, bm.BWSat)
		}
	}
}

// TestProfileMatchesRaw is the oracle for Profile's one-Pow-per-column
// fill: every cell must equal Raw(c,b)/Raw(C,B) bit for bit, for all
// thirteen benchmarks on every evaluation platform.
func TestProfileMatchesRaw(t *testing.T) {
	for _, p := range []model.Platform{model.PlatformA, model.PlatformB, model.PlatformC} {
		for _, bm := range All {
			prof := bm.Profile(p)
			ref := bm.Raw(p.C, p.B)
			for c := p.Cmin; c <= p.C; c++ {
				for b := p.Bmin; b <= p.B; b++ {
					got, want := prof.At(c, b), bm.Raw(c, b)/ref
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s on %s: Profile(%d,%d) = %v, Raw/ref = %v", bm.Name, p.Name, c, b, got, want)
					}
				}
			}
		}
	}
}

// TestWCETModelRoundsProducts pins the WCET model's bits at inputs, found
// by search, where a fused multiply-add changes the last bit: missFactor's
// product, and TraceProfile's sum of cost products (with the default
// latencies every product is an exact integer, so none differs there).
// The explicit conversions round each product, so the model's own
// arithmetic does not depend on whether a compiler fuses x*y + z, as
// arm64's does. Raw and Profile are held by TestProfileMatchesRaw, which
// a fused Raw or a fused Profile fails.
func TestWCETModelRoundsProducts(t *testing.T) {
	bodytrack, _ := ByName("bodytrack")
	if got := math.Float64bits(bodytrack.missFactor(5)); got != 0x40013b4364ec248e { // fused: ...248d
		t.Errorf("bodytrack missFactor(5) bits %#x, want 0x40013b4364ec248e", got)
	}
	vips, _ := ByName("vips")
	tab, err := vips.TraceProfile(model.PlatformC, TraceConfig{
		Ops: 5000, HitLatency: 0.3, MissLatency: 13.1, ComputeLatency: 0.7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float64bits(tab.At(7, 3)); got != 0x3ff047a11859346b { // fused: ...346a
		t.Errorf("vips trace profile (7,3) bits %#x, want 0x3ff047a11859346b", got)
	}
}
