package alloc

import (
	"math"
	"strconv"
	"testing"

	"vc2m/internal/model"
	"vc2m/internal/parsec"
	"vc2m/internal/provenance"
	"vc2m/internal/rngutil"
)

// checkMemos fails unless every valid memo of every core equals a fresh
// utilAt of the state it stands for, bit for bit.
func checkMemos(t *testing.T, cores []*coreState, when string) {
	t.Helper()
	for i, cs := range cores {
		for _, m := range []struct {
			valid  bool
			memo   float64
			cache  int
			bw     int
			method string
		}{
			{cs.memoValid, cs.memoUtil, cs.cache, cs.bw, "util"},
			{cs.moreCacheValid, cs.memoMoreCache, cs.cache + 1, cs.bw, "utilMoreCache"},
			{cs.moreBWValid, cs.memoMoreBW, cs.cache, cs.bw + 1, "utilMoreBW"},
		} {
			if !m.valid {
				continue
			}
			if fresh := cs.utilAt(m.cache, m.bw); math.Float64bits(m.memo) != math.Float64bits(fresh) {
				t.Fatalf("%s: core %d %s memo %v, fresh utilAt(%d, %d) = %v",
					when, i, m.method, m.memo, m.cache, m.bw, fresh)
			}
		}
	}
}

// memoCheckSink checks every core's memos whenever a decision is
// recorded: before each Phase 2 grant is applied (so after the previous
// grant and the re-pricing that followed it) and after each Phase 3
// migration.
type memoCheckSink struct {
	t     *testing.T
	cores []*coreState
}

func (s *memoCheckSink) Record(d provenance.Decision) {
	if s == nil {
		return
	}
	checkMemos(s.t, s.cores, "at "+string(d.Kind)+" "+strconv.Itoa(d.Seq))
}

// refPhase2 is allocatePhase2 without any memo: every utilization it
// reads is a fresh utilAt. It records the same grant decisions.
func refPhase2(cores []*coreState, plat model.Platform, prov *provenance.Recorder) (bool, failCause) {
	for _, cs := range cores {
		cs.cache, cs.bw = plat.Cmin, plat.Bmin
	}
	spareCache := plat.C - plat.Cmin*len(cores)
	spareBW := plat.B - plat.Bmin*len(cores)
	if spareCache < 0 || spareBW < 0 {
		return false, failCause{cache: spareCache < 0, bw: spareBW < 0}
	}
	for {
		allOK := true
		bestCore, bestIsCache := -1, false
		bestGain := 0.0
		for i, cs := range cores {
			u := cs.utilAt(cs.cache, cs.bw)
			if schedulable(u) {
				continue
			}
			allOK = false
			if spareCache > 0 && cs.cache < plat.C {
				if g := gain(u, cs.utilAt(cs.cache+1, cs.bw)); g > bestGain {
					bestGain, bestCore, bestIsCache = g, i, true
				}
			}
			if spareBW > 0 && cs.bw < plat.B {
				if g := gain(u, cs.utilAt(cs.cache, cs.bw+1)); g > bestGain {
					bestGain, bestCore, bestIsCache = g, i, false
				}
			}
		}
		if allOK {
			return true, failCause{}
		}
		if bestCore < 0 || bestGain <= schedEps {
			var cause failCause
			for _, cs := range cores {
				cs.touch()
				if !schedulable(cs.utilAt(cs.cache, cs.bw)) {
					cause = cause.or(coreFailCause(cs, plat))
				}
			}
			return false, cause
		}
		kind := provenance.Cache
		if !bestIsCache {
			kind = provenance.BW
		}
		cs := cores[bestCore]
		prov.Record(provenance.Decision{
			Stage: provenance.StagePhase2, Kind: provenance.KindGrant,
			Subject: coreName(bestCore), Target: string(kind),
			Cache: cs.cache, BW: cs.bw,
			Value: bestGain, Accepted: true,
			Reason: grantReason(bestGain),
		})
		if bestIsCache {
			cs.cache++
			spareCache--
		} else {
			cs.bw++
			spareBW--
		}
	}
}

// refAllocateAndBalance is allocateAndBalance over refPhase2. Phase 3 is
// the production balancePhase3, entered with every memo cleared so that
// it only sees utilizations it summed itself.
func refAllocateAndBalance(cores []*coreState, plat model.Platform, rounds int, prov *provenance.Recorder) (bool, failCause) {
	touchAll := func() {
		for _, cs := range cores {
			cs.touch()
		}
	}
	ok, cause := refPhase2(cores, plat, prov)
	if ok {
		return true, failCause{}
	}
	touchAll()
	prevOverload := totalOverload(cores)
	for round := 0; round < rounds; round++ {
		touchAll()
		if !balancePhase3(cores, &attemptEffort{}, prov) {
			return false, cause
		}
		if ok, cause = refPhase2(cores, plat, prov); ok {
			return true, failCause{}
		}
		touchAll()
		over := totalOverload(cores)
		if over >= prevOverload-schedEps {
			return false, cause
		}
		prevOverload = over
	}
	return false, cause
}

// randomCores spreads 1..14 profile-shaped VCPUs over 1..4 cores. About a
// third of the budget tables carry existing-CSA style +Inf entries: a
// down-set of small (c, b) allocations under which the VCPU is
// infeasible.
func randomCores(rng *rngutil.RNG, plat model.Platform) ([]*coreState, int) {
	m := 1 + rng.Intn(4)
	n := 1 + rng.Intn(14)
	cores := make([]*coreState, m)
	for i := range cores {
		cores[i] = &coreState{}
	}
	infs := 0
	for j := 0; j < n; j++ {
		bm := parsec.All[rng.Intn(len(parsec.All))]
		period := 10 + 90*rng.Float64()
		budget := bm.WCETTable(plat, period*(0.05+0.4*rng.Float64()))
		if rng.Intn(3) == 0 {
			cut := plat.Cmin + plat.Bmin + 1 + rng.Intn(8)
			for c := plat.Cmin; c <= plat.C; c++ {
				for b := plat.Bmin; b <= plat.B && c+b < cut; b++ {
					budget.Set(c, b, math.Inf(1))
					infs++
				}
			}
		}
		v := &model.VCPU{ID: "v" + strconv.Itoa(j), VM: "vm", Index: j, Period: period, Budget: budget}
		cs := cores[rng.Intn(m)]
		cs.vcpus = append(cs.vcpus, v)
	}
	return cores, infs
}

func cloneCores(cores []*coreState) []*coreState {
	out := make([]*coreState, len(cores))
	for i, cs := range cores {
		out[i] = &coreState{vcpus: append([]*model.VCPU(nil), cs.vcpus...), cache: cs.cache, bw: cs.bw}
	}
	return out
}

func sameDecision(a, b provenance.Decision) bool {
	return a.Seq == b.Seq && a.Stage == b.Stage && a.Kind == b.Kind &&
		a.Subject == b.Subject && a.Target == b.Target &&
		a.Cache == b.Cache && a.BW == b.BW && a.Accepted == b.Accepted &&
		math.Float64bits(a.Value) == math.Float64bits(b.Value) && a.Reason == b.Reason
}

// TestPhase2MemoMatchesFresh is the oracle for the Phase 2 memo: on random
// core sets, including +Inf budget entries, every memo valid at any grant
// or migration equals a fresh utilAt bit for bit, and allocateAndBalance
// grants and migrates exactly as a memo-free reference loop does, to the
// same verdict, cause and final partitions.
func TestPhase2MemoMatchesFresh(t *testing.T) {
	rng := rngutil.New(21)
	var grants, migrations, infs, infGrants int
	for trial := 0; trial < 400; trial++ {
		plat := model.PlatformC
		if trial%2 == 1 {
			plat = model.PlatformA
		}
		cores, inf := randomCores(rng, plat)
		infs += inf
		ref := cloneCores(cores)

		sink := &memoCheckSink{t: t, cores: cores}
		got := provenance.NewStreaming(sink)
		ok, cause := allocateAndBalance(cores, plat, HyperConfig{MaxBalanceRounds: 16, Provenance: got}, &attemptEffort{})
		checkMemos(t, cores, "after allocateAndBalance")

		want := provenance.New()
		wantOK, wantCause := refAllocateAndBalance(ref, plat, 16, want)

		if ok != wantOK || cause != wantCause {
			t.Fatalf("trial %d: verdict %v %+v, reference %v %+v", trial, ok, cause, wantOK, wantCause)
		}
		gd, wd := got.Decisions(), want.Decisions()
		if len(gd) != len(wd) {
			t.Fatalf("trial %d: %d decisions, reference %d", trial, len(gd), len(wd))
		}
		for i := range gd {
			if !sameDecision(gd[i], wd[i]) {
				t.Fatalf("trial %d: decision %d = %+v, reference %+v", trial, i, gd[i], wd[i])
			}
			switch gd[i].Kind {
			case provenance.KindGrant:
				grants++
				if gd[i].Value > 1e17 {
					infGrants++ // a grant that lifted a core out of +Inf
				}
			case provenance.KindMigrate:
				migrations++
			}
		}
		for i, cs := range cores {
			if cs.cache != ref[i].cache || cs.bw != ref[i].bw || len(cs.vcpus) != len(ref[i].vcpus) {
				t.Fatalf("trial %d: core %d ends at (%d, %d) with %d VCPUs, reference (%d, %d) with %d",
					trial, i, cs.cache, cs.bw, len(cs.vcpus), ref[i].cache, ref[i].bw, len(ref[i].vcpus))
			}
		}
	}
	if grants == 0 || migrations == 0 || infs == 0 || infGrants == 0 {
		t.Fatalf("weak coverage: %d grants, %d migrations, %d +Inf entries, %d grants out of +Inf",
			grants, migrations, infs, infGrants)
	}
	t.Logf("%d grants (%d out of +Inf), %d migrations checked", grants, infGrants, migrations)
}
