package alloc

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"vc2m/internal/metrics"
	"vc2m/internal/model"
	"vc2m/internal/obs"
	"vc2m/internal/provenance"
	"vc2m/internal/rngutil"
	"vc2m/internal/workload"
)

// refHyperLevel is HyperLevel before failed attempts were replayed: every
// attempt packs, allocates and balances afresh. It is the oracle of
// TestHyperLevelMatchesReference and FuzzHyperLevelMatchesReference.
func refHyperLevel(vcpus []*model.VCPU, plat model.Platform, cfg HyperConfig, rng *rngutil.RNG) (*model.Allocation, error) {
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	if len(vcpus) == 0 {
		return &model.Allocation{Platform: plat, Schedulable: true}, nil
	}
	cfg = cfg.withDefaults(len(vcpus))
	groups, err := hyperGroups(vcpus, plat, cfg, rng)
	if err != nil {
		return nil, err
	}
	rec := cfg.Metrics
	prov := cfg.Provenance

	var scratch packScratch
	var attempts int
	var cpuN, cacheN, bwN int
	mStart := 1
	if cfg.MinCores > mStart {
		mStart = cfg.MinCores
	}
	for m := mStart; m <= plat.M; m++ {
		if plat.Cmin*m > plat.C || plat.Bmin*m > plat.B {
			break
		}
		rec.Inc(MetricMTried)
		for iter := 0; iter < cfg.MaxIters; iter++ {
			perm := rng.Perm(len(groups))
			rec.Inc(MetricPermutations)
			cores := packPhase1(groups, perm, m, &scratch)
			rec.Inc(MetricPhase1Packing)
			attempts++
			var effort attemptEffort
			ok, cause := allocateAndBalance(cores, plat, cfg, &effort)
			effort.flush(rec)
			if ok {
				if prov.Enabled() {
					recordPlacements(prov, cores)
					prov.Record(provenance.Decision{
						Stage: provenance.StageHyper, Kind: provenance.KindAccept,
						Subject: "system", Target: "m=" + strconv.Itoa(m),
						Value: float64(m), Accepted: true,
						Reason: acceptReason(m, iter),
					})
				}
				return buildAllocation(cores, plat), nil
			}
			if cause.cpu {
				cpuN++
			}
			if cause.cache {
				cacheN++
			}
			if cause.bw {
				bwN++
			}
			if prov.Enabled() {
				prov.Record(provenance.Decision{
					Stage: provenance.StageHyper, Kind: provenance.KindAttempt,
					Subject:  attemptSubject(m, iter),
					Value:    totalOverload(cores),
					Reason:   "packing attempt left unschedulable cores (value = total overload)",
					Violated: cause.violated(),
				})
			}
		}
	}
	return nil, searchExhausted(prov, attempts, cpuN, cacheN, bwN)
}

// memoVCPUs builds the VCPUs Heuristic.Allocate would hand HyperLevel for
// a generated system, or nil when the VM level rejects the system (the
// overhead-free analysis needs harmonic periods).
func memoVCPUs(plat model.Platform, mode CSAMode, util float64, seed int64) []*model.VCPU {
	sys, err := workload.Generate(workload.Config{
		Platform: plat, TargetRefUtil: util, Dist: workload.Uniform,
	}, rngutil.New(seed))
	if err != nil {
		return nil
	}
	rng := rngutil.New(seed + 1)
	var vcpus []*model.VCPU
	for _, vm := range sys.VMs {
		vs, err := VMLevel(vm, plat, VMLevelConfig{Mode: mode}, len(vcpus), rng)
		if err != nil {
			return nil
		}
		vcpus = append(vcpus, vs...)
	}
	return vcpus
}

// memoStats tallies what the differential runs exercised.
type memoStats struct {
	runs, accepted, rejected int
	reusedAttempts           int // attempts that replayed an earlier one
	repeatedDecisions        int // Phase 2-3 decisions re-recorded by replays
}

// allocLayout renders an allocation's core map: each core's partitions
// and its VCPUs with their periods and reference budgets, in order.
func allocLayout(a *model.Allocation) string {
	if a == nil {
		return "<nil>"
	}
	b := fmt.Appendf(nil, "%s schedulable=%v solution=%q\n", a.Platform.Name, a.Schedulable, a.Solution)
	for _, c := range a.Cores {
		b = fmt.Appendf(b, "core %d cache %d bw %d:", c.Core, c.Cache, c.BW)
		for _, v := range c.VCPUs {
			b = fmt.Appendf(b, " %s/%d(%x,%x)", v.ID, v.Index, math.Float64bits(v.Period), math.Float64bits(v.Budget.Reference()))
		}
		b = append(b, '\n')
	}
	return string(b)
}

// checkHyperLevelMatchesReference runs HyperLevel and refHyperLevel on the
// same input with the same seed, each with or without a metrics and a
// provenance recorder, and fails unless the allocations, errors, violated
// lists, counters (zero-valued ones included) and decision streams are
// identical. Allocations are compared by layout, and also as JSON, which
// holds every budget table, when fullJSON is set.
func checkHyperLevelMatchesReference(t testing.TB, what string, vcpus []*model.VCPU, plat model.Platform, cfg HyperConfig, seed int64, fullJSON bool, st *memoStats) {
	t.Helper()
	for _, withMetrics := range []bool{false, true} {
		for _, withProv := range []bool{false, true} {
			type result struct {
				a    *model.Allocation
				err  error
				rec  *metrics.Recorder
				prov *provenance.Recorder
				tr   *obs.Trace
			}
			run := func(f func([]*model.VCPU, model.Platform, HyperConfig, *rngutil.RNG) (*model.Allocation, error)) result {
				c := cfg
				var r result
				if withMetrics {
					r.rec = metrics.New()
					c.Metrics = r.rec
				}
				if withProv {
					r.prov = provenance.New()
					c.Provenance = r.prov
				}
				r.tr = obs.NewTrace()
				root := r.tr.StartSpan(obs.StageHyper)
				c.Span = root
				r.a, r.err = f(vcpus, plat, c, rngutil.New(seed))
				root.End()
				return r
			}
			got, want := run(HyperLevel), run(refHyperLevel)
			where := fmt.Sprintf("%s (metrics %v, provenance %v)", what, withMetrics, withProv)

			if g, w := allocLayout(got.a), allocLayout(want.a); g != w {
				t.Fatalf("%s: allocation\n%s\nreference\n%s", where, g, w)
			}
			if fullJSON && withMetrics && withProv {
				gotA, gotAErr := model.EncodeAllocation(got.a)
				wantA, wantAErr := model.EncodeAllocation(want.a)
				if fmt.Sprint(gotAErr) != fmt.Sprint(wantAErr) || string(gotA) != string(wantA) {
					t.Fatalf("%s: allocation JSON\n%s\nreference\n%s", where, gotA, wantA)
				}
			}
			if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
				t.Fatalf("%s: error %v, reference %v", where, got.err, want.err)
			}
			var gotRE, wantRE *RejectionError
			if errors.As(got.err, &gotRE) != errors.As(want.err, &wantRE) ||
				(gotRE != nil && (gotRE.Stage != wantRE.Stage || !slices.Equal(gotRE.Violated, wantRE.Violated))) {
				t.Fatalf("%s: rejection %+v, reference %+v", where, gotRE, wantRE)
			}
			if g, w := got.rec.Snapshot(), want.rec.Snapshot(); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: counters\n%v\nreference\n%v", where, g.Counters, w.Counters)
			}
			gd, wd := got.prov.Decisions(), want.prov.Decisions()
			if len(gd) != len(wd) {
				t.Fatalf("%s: %d decisions, reference %d", where, len(gd), len(wd))
			}
			for i := range gd {
				if !sameDecision(gd[i], wd[i]) || !slices.Equal(gd[i].Violated, wd[i].Violated) {
					t.Fatalf("%s: decision %d = %+v, reference %+v", where, i, gd[i], wd[i])
				}
			}
			for _, r := range got.prov.Repeats() {
				st.repeatedDecisions += r.N
			}
			reused := checkReplaySpans(t, where, got.tr)
			if withProv && withMetrics {
				st.runs++
				st.reusedAttempts += reused
				if got.err == nil {
					st.accepted++
				} else {
					st.rejected++
				}
			}
		}
	}
}

// checkReplaySpans fails unless every alloc.phase1 span marked reused is
// followed by another phase1 span or by none, never by the phase2 or
// phase3 span of a fresh attempt, and returns the reused count.
func checkReplaySpans(t testing.TB, where string, tr *obs.Trace) int {
	t.Helper()
	spans := tr.Snapshot()
	reused := 0
	for i, sp := range spans {
		if sp.Name != obs.StagePhase1 || !slices.Contains(sp.Attrs, obs.Attr{Key: "reused", Value: "true"}) {
			continue
		}
		reused++
		if i+1 < len(spans) && spans[i+1].Name != obs.StagePhase1 && spans[i+1].Name != obs.StageHyper {
			t.Fatalf("%s: a reused attempt's phase1 span is followed by %s", where, spans[i+1].Name)
		}
	}
	return reused
}

// TestHyperLevelMatchesReference is the oracle for the packing-attempt
// memo: over Platforms A, B and C, every CSA mode, the ablation switches,
// MinCores, Clusters 1-4 and MaxIters 1-20, with and without recorders,
// HyperLevel matches the search that runs every attempt afresh.
func TestHyperLevelMatchesReference(t *testing.T) {
	configs := []HyperConfig{
		{},
		{NoClustering: true},
		{NoLoadBalance: true},
		{NoResourceGrowth: true},
		{MinCores: 2},
		{MinCores: 3, MaxIters: 4},
		{Clusters: 1},
		{Clusters: 2},
		{Clusters: 3, MaxIters: 20},
		{Clusters: 4, MaxIters: 20},
		{MaxIters: 1},
		{MaxIters: 7, NoLoadBalance: true, Clusters: 2},
	}
	if testing.Short() {
		configs = configs[:4]
	}
	var st memoStats
	for _, plat := range []model.Platform{model.PlatformA, model.PlatformB, model.PlatformC} {
		for _, mode := range []CSAMode{Flattening, OverheadFree, ExistingCSA, Auto} {
			for _, util := range []float64{0.6, 1.2, 1.8} {
				seed := int64(100*util) + int64(mode)
				vcpus := memoVCPUs(plat, mode, util, seed)
				if vcpus == nil {
					continue
				}
				for ci, cfg := range configs {
					what := fmt.Sprintf("platform %s, %s, util %.1f, config %d %+v", plat.Name, mode, util, ci, cfg)
					checkHyperLevelMatchesReference(t, what, vcpus, plat, cfg, seed+int64(ci), ci == 0, &st)
				}
			}
		}
	}
	if st.accepted == 0 || st.rejected == 0 || st.reusedAttempts == 0 || st.repeatedDecisions == 0 {
		t.Fatalf("weak coverage: %+v", st)
	}
	t.Logf("%+v", st)
}

// FuzzHyperLevelMatchesReference drives the same oracle from fuzzed
// systems and configurations.
func FuzzHyperLevelMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(90), uint32(0))
	f.Add(int64(7), uint8(140), uint32(2*3))
	f.Add(int64(3), uint8(200), uint32(1+3*2+12*5))
	f.Add(int64(11), uint8(60), uint32(2+3*3+12*7+96*19))
	f.Fuzz(func(t *testing.T, seed int64, util uint8, knobs uint32) {
		plat := []model.Platform{model.PlatformA, model.PlatformB, model.PlatformC}[knobs%3]
		mode := CSAMode(knobs / 3 % 4)
		switches := knobs / 12 % 8
		cfg := HyperConfig{
			NoClustering:     switches&1 != 0,
			NoLoadBalance:    switches&2 != 0,
			NoResourceGrowth: switches&4 != 0,
			MaxIters:         1 + int(knobs/96%20),
			Clusters:         1 + int(knobs/1920%4),
			MinCores:         int(knobs / 7680 % 4),
		}
		vcpus := memoVCPUs(plat, mode, 0.2+float64(util)/100, seed)
		if vcpus == nil {
			return
		}
		var st memoStats
		checkHyperLevelMatchesReference(t, fmt.Sprintf("seed %d util %d knobs %d", seed, util, knobs), vcpus, plat, cfg, seed, true, &st)
	})
}

// TestReplayAddsTheAttemptsCounters: a replay adds exactly the counters
// its attempt added, zero-valued ones included, so that a counter a
// replay alone would touch is registered as the fresh attempt registers
// it.
func TestReplayAddsTheAttemptsCounters(t *testing.T) {
	rng := rngutil.New(31)
	var failed, zeros int
	for trial := 0; trial < 300; trial++ {
		plat := model.PlatformC
		if trial%2 == 1 {
			plat = model.PlatformA
		}
		cores, _ := randomCores(rng, plat)
		first := metrics.New()
		cfg := HyperConfig{
			MaxBalanceRounds: 16, Metrics: first,
			NoLoadBalance: trial%3 == 0, NoResourceGrowth: trial%5 == 0,
		}
		ok, out, replayable := runAttempt(cores, []int{0}, plat, cfg)
		if ok {
			continue
		}
		if !replayable {
			t.Fatalf("trial %d: an attempt with no provenance recorder is not replayable", trial)
		}
		failed++
		again := metrics.New()
		out.replay(again, nil)
		want := first.Snapshot()
		if got := again.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: replay adds %v, the attempt added %v", trial, got.Counters, want.Counters)
		}
		for _, n := range want.Counters { //vc2m:ordered counting zero values
			if n == 0 {
				zeros++
			}
		}
	}
	if failed == 0 || zeros == 0 {
		t.Fatalf("weak coverage: %d failed attempts, %d zero-valued counters", failed, zeros)
	}
}

// echoSink records one extra decision into its own recorder after every
// grant: a second writer sharing the attempt's recorder.
type echoSink struct {
	prov *provenance.Recorder
}

func (s *echoSink) Record(d provenance.Decision) {
	if s == nil {
		return
	}
	if d.Kind != provenance.KindGrant {
		return
	}
	s.prov.Record(provenance.Decision{Stage: provenance.StageHyper, Kind: "echo", Subject: d.Subject})
}

// TestSharedRecorderAttemptNotReplayed: an attempt whose decision range
// holds another writer's decisions is run again rather than replayed, so
// the stream is the one a search without replays records.
func TestSharedRecorderAttemptNotReplayed(t *testing.T) {
	plat := model.PlatformA
	var cases, wouldReplay int
	for seed := int64(1); seed <= 6; seed++ {
		vcpus := memoVCPUs(plat, ExistingCSA, 1.6, seed)
		if vcpus == nil {
			continue
		}
		run := func(f func([]*model.VCPU, model.Platform, HyperConfig, *rngutil.RNG) (*model.Allocation, error), echo bool) *provenance.Recorder {
			sink := &echoSink{}
			prov := provenance.New()
			if echo {
				prov = provenance.NewStreaming(sink)
				sink.prov = prov
			}
			_, _ = f(vcpus, plat, HyperConfig{Provenance: prov}, rngutil.New(seed))
			return prov
		}
		if len(run(HyperLevel, false).Repeats()) == 0 {
			continue // no attempt repeats here even without the echo
		}
		wouldReplay++
		got, want := run(HyperLevel, true), run(refHyperLevel, true)
		if n := len(got.Repeats()); n != 0 {
			t.Fatalf("seed %d: %d attempts replayed over another writer's decisions", seed, n)
		}
		gd, wd := got.Decisions(), want.Decisions()
		if len(gd) != len(wd) {
			t.Fatalf("seed %d: %d decisions, reference %d", seed, len(gd), len(wd))
		}
		for i := range gd {
			if !sameDecision(gd[i], wd[i]) {
				t.Fatalf("seed %d: decision %d = %+v, reference %+v", seed, i, gd[i], wd[i])
			}
		}
		cases++
	}
	if cases == 0 || wouldReplay == 0 {
		t.Fatal("no case repeats an attempt")
	}
}

// TestFailedAttemptOverloadIsFinite guards the attempt decision's value,
// which a replay copies from its memo: totalOverload clamps +Inf cores.
func TestFailedAttemptOverloadIsFinite(t *testing.T) {
	prov := provenance.New()
	vcpus := memoVCPUs(model.PlatformC, ExistingCSA, 1.8, 5)
	if vcpus == nil {
		t.Skip("no system")
	}
	_, _ = HyperLevel(vcpus, model.PlatformC, HyperConfig{Provenance: prov}, rngutil.New(5))
	for _, d := range prov.Decisions() {
		if d.Kind == provenance.KindAttempt && (math.IsInf(d.Value, 0) || math.IsNaN(d.Value)) {
			t.Fatalf("attempt %s has value %v", d.Subject, d.Value)
		}
	}
}
