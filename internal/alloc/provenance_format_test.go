package alloc

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"vc2m/internal/model"
	"vc2m/internal/parsec"
	"vc2m/internal/provenance"
	"vc2m/internal/rngutil"
)

// TestGrantReasonMatchesSprintf is the differential oracle for the
// fmt-free grant reason: over random float bit patterns and the edge
// values a gain can take, grantReason must print exactly what the
// fmt.Sprintf("%.4g") form it replaced printed.
func TestGrantReasonMatchesSprintf(t *testing.T) {
	check := func(g float64) {
		t.Helper()
		want := fmt.Sprintf("best utilization gain %.4g among unschedulable cores", g)
		if got := grantReason(g); got != want {
			t.Fatalf("grantReason(%v) (bits %#x) = %q, want %q", g, math.Float64bits(g), got, want)
		}
	}
	for _, g := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1e-4, 1e-5, 12345, 123456, 0.00012345,
		9.9995, 99995, 1e18, math.Nextafter(1e18, 0), 1e18 - 0.75, 1e18 - 1e-9,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		math.MaxFloat64, -math.MaxFloat64,
	} {
		check(g)
	}
	rng := rngutil.New(18)
	for i := 0; i < 200000; i++ {
		bits := uint64(rng.Int63()) | uint64(rng.Int63())<<63
		check(math.Float64frombits(bits))
	}
	// Gains are utilization differences, mostly in [0, 1]: sample that
	// range densely too, where %.4g switches between fixed and exponent
	// notation.
	for i := 0; i < 200000; i++ {
		check(rng.Float64() * math.Pow(10, float64(rng.Intn(12)-8)))
	}
}

// TestCoreNameMatchesSprintf checks the core-name table, and the
// fallback for indices outside it, against fmt.Sprintf("core %d").
func TestCoreNameMatchesSprintf(t *testing.T) {
	for i := -3; i < 3*len(coreNames); i++ {
		if got, want := coreName(i), fmt.Sprintf("core %d", i); got != want {
			t.Fatalf("coreName(%d) = %q, want %q", i, got, want)
		}
	}
	for _, i := range []int{1000, 1 << 20, math.MaxInt, math.MinInt} {
		if got, want := coreName(i), fmt.Sprintf("core %d", i); got != want {
			t.Fatalf("coreName(%d) = %q, want %q", i, got, want)
		}
	}
}

// TestPhase1StringsMatchSprintf is the differential oracle for the
// fmt-free HyperLevel strings: the attempt subject, the accept target and
// the accept reason must print exactly what their fmt.Sprintf forms did.
func TestPhase1StringsMatchSprintf(t *testing.T) {
	check := func(m, iter int) {
		t.Helper()
		if got, want := attemptSubject(m, iter), fmt.Sprintf("m=%d iter=%d", m, iter); got != want {
			t.Fatalf("attemptSubject(%d, %d) = %q, want %q", m, iter, got, want)
		}
		if got, want := "m="+strconv.Itoa(m), fmt.Sprintf("m=%d", m); got != want {
			t.Fatalf("accept target for m=%d: %q, want %q", m, got, want)
		}
		if got, want := acceptReason(m, iter), fmt.Sprintf("schedulable on %d cores at iteration %d", m, iter); got != want {
			t.Fatalf("acceptReason(%d, %d) = %q, want %q", m, iter, got, want)
		}
	}
	edges := []int{0, 1, 9, 10, 99, 100, -1, -10, math.MaxInt32, math.MaxInt, math.MinInt}
	for _, m := range edges {
		for _, iter := range edges {
			check(m, iter)
		}
	}
	for m := 0; m < 70; m++ {
		for iter := 0; iter < 120; iter++ {
			check(m, iter)
		}
	}
	rng := rngutil.New(21)
	for i := 0; i < 20000; i++ {
		check(int(rng.Int63())-int(rng.Int63()), int(rng.Int63()))
	}
}

// TestAdmitReasonsMatchSprintf is the differential oracle for the
// fmt-free reasons of placeOneGrowing: the spare-grant reason and both
// rejection reasons must print exactly what their fmt.Sprintf forms did,
// for any VCPU and VM ID (format verbs, invalid UTF-8 and control bytes
// included) and any partition counts.
func TestAdmitReasonsMatchSprintf(t *testing.T) {
	check := func(vcpu, vm string, core, cache, bw int) {
		t.Helper()
		for _, kind := range []provenance.Resource{provenance.Cache, provenance.BW} {
			if got, want := grantSpareReason(kind, vcpu), fmt.Sprintf("spare %s partition granted so VCPU %s can fit", kind, vcpu); got != want {
				t.Fatalf("grantSpareReason(%q, %q) = %q, want %q", kind, vcpu, got, want)
			}
		}
		if got, want := hopelessReason(vcpu, vm, cache, bw),
			fmt.Sprintf("VCPU %s of VM %s fits on no core even after granting every spare partition (%d cache, %d bw left)",
				vcpu, vm, cache, bw); got != want {
			t.Fatalf("hopelessReason(%q, %q, %d, %d) = %q, want %q", vcpu, vm, cache, bw, got, want)
		}
		if got, want := noHelpReason(vcpu, core, cache, bw),
			fmt.Sprintf("no spare partition still helps VCPU %s on core %d (%d cache, %d bw left)",
				vcpu, core, cache, bw); got != want {
			t.Fatalf("noHelpReason(%q, %d, %d, %d) = %q, want %q", vcpu, core, cache, bw, got, want)
		}
	}
	ids := []string{"", "vm0-v0", "newA-v1", "%d %s %%", "\xff\xfe", "a\x00b\n", "<&>", "日本"}
	edges := []int{0, 1, 9, 10, -1, 20, math.MaxInt, math.MinInt}
	for _, vcpu := range ids {
		for _, vm := range ids {
			for _, n := range edges {
				check(vcpu, vm, n, n, -n)
				check(vcpu, vm, 0, n, 1)
			}
		}
	}
	rng := rngutil.New(26)
	for i := 0; i < 20000; i++ {
		id := make([]byte, rng.Intn(12))
		for j := range id {
			id[j] = byte(rng.Intn(256))
		}
		check(string(id), "vm"+strconv.Itoa(i), int(rng.Int63())-int(rng.Int63()), rng.Intn(64), rng.Intn(64))
	}
}

// formatProbes returns the edge values a %.4g reason can print, then
// random bit patterns, then random values spread over [1e-8, 1e4).
func formatProbes(seed int64) []float64 {
	probes := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1e-4, 1e-5, 12345, 123456, 0.00012345,
		9.9995, 99995, 1e18, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
		math.MaxFloat64, -math.MaxFloat64,
	}
	rng := rngutil.New(seed)
	for i := 0; i < 20000; i++ {
		probes = append(probes, math.Float64frombits(uint64(rng.Int63())|uint64(rng.Int63())<<63))
	}
	for i := 0; i < 20000; i++ {
		probes = append(probes, rng.Float64()*math.Pow(10, float64(rng.Intn(12)-8)))
	}
	return probes
}

// TestWellRegulatedReasonMatchesSprintf: the well-regulated interface
// reason prints exactly what its fmt.Sprintf form printed.
func TestWellRegulatedReasonMatchesSprintf(t *testing.T) {
	for _, p := range formatProbes(30) {
		want := fmt.Sprintf("well-regulated (Theorem 2): period %.4g, bandwidth equals taskset utilization (zero abstraction overhead)", p)
		if got := wellRegulatedReason(p); got != want {
			t.Fatalf("wellRegulatedReason(%v) (bits %#x) = %q, want %q", p, math.Float64bits(p), got, want)
		}
	}
}

// TestMapReasonMatchesSprintf: every map decision of the cluster-packing
// VM level carries exactly the reason its fmt.Sprintf form printed.
func TestMapReasonMatchesSprintf(t *testing.T) {
	p := model.PlatformA
	var tasks []*model.Task
	for i, name := range []string{"streamcluster", "swaptions", "canneal", "blackscholes", "ferret", "dedup"} {
		bm, _ := parsec.ByName(name)
		period := 100.0 * float64(int(1)<<uint(i%3))
		tasks = append(tasks, &model.Task{ID: name, Period: period, WCET: bm.WCETTable(p, period*0.15), Benchmark: name})
	}
	vm := mkVM("vm1", tasks...)
	for _, mode := range []CSAMode{OverheadFree, ExistingCSA} {
		prov := provenance.New()
		if _, err := VMLevel(vm, p, VMLevelConfig{Mode: mode, Provenance: prov}, 0, rngutil.New(7)); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("cluster packing (%s): least-loaded VCPU of the task's slowdown cluster", mode)
		maps := 0
		for _, d := range prov.Decisions() {
			if d.Kind != provenance.KindMap {
				continue
			}
			maps++
			if d.Reason != want {
				t.Fatalf("%s: map reason %q, want %q", mode, d.Reason, want)
			}
		}
		if maps != len(tasks) {
			t.Fatalf("%s: %d map decisions for %d tasks", mode, maps, len(tasks))
		}
	}
}
