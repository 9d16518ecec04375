package experiment

import (
	"strings"
	"testing"

	"vc2m/internal/model"
)

func TestRunOnline(t *testing.T) {
	res, err := RunOnline(OnlineConfig{
		Arrivals: 8,
		Trials:   4,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OnlineAdmitted <= 0 {
		t.Fatal("online controller admitted nothing")
	}
	// The online controller cannot beat the offline upper bound by more
	// than noise (the offline comparator is a prefix bound, so small
	// inversions are possible when the online controller skips a VM the
	// prefix rule must stop at; allow one VM of slack).
	if res.OnlineAdmitted > res.OfflineAdmitted+1.0 {
		t.Errorf("online %v far above offline bound %v", res.OnlineAdmitted, res.OfflineAdmitted)
	}
	// And it should achieve a reasonable share of it.
	if res.OnlineAdmitted < 0.5*res.OfflineAdmitted {
		t.Errorf("online admitted %v, below half the offline %v",
			res.OnlineAdmitted, res.OfflineAdmitted)
	}
	tbl := res.Table()
	if !strings.Contains(tbl, "online (Admit)") || !strings.Contains(tbl, "offline") {
		t.Errorf("table malformed:\n%s", tbl)
	}
}

func TestRunOnlineDefaults(t *testing.T) {
	res, err := RunOnline(OnlineConfig{Trials: 1, Arrivals: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Platform.Name != model.PlatformA.Name {
		t.Errorf("default platform = %s, want A", res.Config.Platform.Name)
	}
	if res.Config.VMUtil != 0.35 { //vc2m:floateq the default is assigned from this literal; nothing is computed
		t.Errorf("default VM util = %v", res.Config.VMUtil)
	}
}
