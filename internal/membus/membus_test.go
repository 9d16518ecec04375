package membus

import (
	"testing"
	"testing/quick"

	"vc2m/internal/timeunit"
)

func mkReg(t *testing.T, budgets ...int64) *Regulator {
	t.Helper()
	r, err := New(Config{Period: timeunit.FromMillis(1), Budgets: budgets})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConfigValidate(t *testing.T) {
	good := Config{Period: 1000, Budgets: []int64{100}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Period: 0, Budgets: []int64{100}},
		{Period: 1000, Budgets: nil},
		{Period: 1000, Budgets: []int64{-1}},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", cfg)
		}
	}
}

func TestBudgetEnforcement(t *testing.T) {
	r := mkReg(t, 3)
	for i := 0; i < 3; i++ {
		if !r.Request(0) {
			t.Fatalf("request %d within budget denied", i)
		}
	}
	if !r.Throttled(0) {
		t.Error("core should be throttled after exhausting its budget")
	}
	if r.Request(0) {
		t.Error("request while throttled should be denied")
	}
	st := r.Stats(0)
	if st.Requests != 3 || st.Throttles != 1 || st.DeniedRequests != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestThrottleHandlerInvoked(t *testing.T) {
	r := mkReg(t, 2)
	var throttledCore = -1
	r.OnThrottle = func(core int) {
		throttledCore = core
		if !r.Throttled(core) {
			t.Error("handler must run after the core is marked throttled")
		}
	}
	r.Request(0)
	if throttledCore != -1 {
		t.Error("handler fired before overflow")
	}
	r.Request(0)
	if throttledCore != 0 {
		t.Errorf("handler got core %d, want 0", throttledCore)
	}
}

func TestReplenishRestoresBudgets(t *testing.T) {
	r := mkReg(t, 2, 5)
	r.Request(0)
	r.Request(0) // throttles core 0
	r.Request(1)
	if !r.Throttled(0) || r.Throttled(1) {
		t.Fatal("unexpected throttle state")
	}
	var replenished []int
	var wasThrottledFlags []bool
	r.OnReplenish = func(core int, wasThrottled bool) {
		replenished = append(replenished, core)
		wasThrottledFlags = append(wasThrottledFlags, wasThrottled)
	}
	r.Replenish()
	if r.Throttled(0) {
		t.Error("core 0 still throttled after replenish")
	}
	if r.Remaining(0) != 2 || r.Remaining(1) != 5 {
		t.Errorf("remaining = %d, %d, want 2, 5", r.Remaining(0), r.Remaining(1))
	}
	if len(replenished) != 2 || !wasThrottledFlags[0] || wasThrottledFlags[1] {
		t.Errorf("replenish callbacks: cores %v throttled-flags %v", replenished, wasThrottledFlags)
	}
	if !r.Request(0) {
		t.Error("request after replenish denied")
	}
}

func TestZeroBudgetDisablesRegulation(t *testing.T) {
	r := mkReg(t, 0)
	for i := 0; i < 10000; i++ {
		if !r.Request(0) {
			t.Fatal("unregulated core was throttled")
		}
	}
	if r.Throttled(0) {
		t.Error("unregulated core marked throttled")
	}
}

func TestCoreNeverExceedsBudgetProperty(t *testing.T) {
	// The regulator's contract: granted requests per period never exceed
	// the budget, for any request pattern.
	f := func(pattern []uint8, budgetRaw uint8) bool {
		budget := int64(budgetRaw%50) + 1
		r, err := New(Config{Period: 1000, Budgets: []int64{budget, budget}})
		if err != nil {
			return false
		}
		granted := [2]int64{}
		for _, p := range pattern {
			core := int(p) % 2
			if r.Request(core) {
				granted[core]++
			}
			if p%17 == 0 {
				r.Replenish()
				granted = [2]int64{}
			}
			if granted[0] > budget || granted[1] > budget {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAccessors(t *testing.T) {
	r := mkReg(t, 10, 20, 30)
	if r.Cores() != 3 {
		t.Errorf("Cores = %d, want 3", r.Cores())
	}
	if r.Period() != 1000 {
		t.Errorf("Period = %v, want 1000 (1 ms)", r.Period())
	}
}

func TestRequestNWithinBudget(t *testing.T) {
	r := mkReg(t, 100)
	if granted := r.RequestN(0, 40); granted != 40 {
		t.Errorf("granted %d, want 40", granted)
	}
	if r.Throttled(0) {
		t.Error("core throttled within budget")
	}
	if r.Remaining(0) != 60 {
		t.Errorf("remaining = %d, want 60", r.Remaining(0))
	}
}

func TestRequestNOverflowsOnce(t *testing.T) {
	r := mkReg(t, 100)
	throttles := 0
	r.OnThrottle = func(core int) { throttles++ }
	if granted := r.RequestN(0, 250); granted != 100 {
		t.Errorf("granted %d, want 100 (budget)", granted)
	}
	if throttles != 1 {
		t.Errorf("throttle handler fired %d times, want 1 for the whole batch", throttles)
	}
	st := r.Stats(0)
	if st.Requests != 100 || st.DeniedRequests != 150 {
		t.Errorf("stats = %+v, want 100 granted / 150 denied", st)
	}
	// Further batches are denied outright.
	if granted := r.RequestN(0, 5); granted != 0 {
		t.Errorf("granted %d while throttled, want 0", granted)
	}
}

func TestRequestNEdgeCases(t *testing.T) {
	r := mkReg(t, 0, 100) // core 0 unregulated
	if granted := r.RequestN(0, 1000); granted != 1000 {
		t.Errorf("unregulated core granted %d, want 1000", granted)
	}
	if granted := r.RequestN(1, 0); granted != 0 {
		t.Errorf("zero batch granted %d, want 0", granted)
	}
	if granted := r.RequestN(1, -5); granted != 0 {
		t.Errorf("negative batch granted %d, want 0", granted)
	}
}

func TestBusLatency(t *testing.T) {
	b := Bus{BaseLatency: 100, ContentionFactor: 0.5}
	if got := b.Latency(1); got != 100 {
		t.Errorf("Latency(1) = %v, want 100", got)
	}
	if got := b.Latency(3); got != 200 {
		t.Errorf("Latency(3) = %v, want 200 (1 + 0.5*2)", got)
	}
	if got := b.Latency(0); got != 100 {
		t.Errorf("Latency(0) = %v, want clamped to 100", got)
	}
}

// TestBusLatencyRoundsProduct pins Latency at an input, found by search,
// where a fused multiply-add of 1 + ContentionFactor*(n-1) changes the
// last bit and the truncated latency with it: 1.1099999999999999 rounded
// gives 110 ticks, 1.11 fused gives 111. The explicit conversion rounds
// the product, so the interference workbench's clock does not depend on
// whether a compiler fuses the two, as arm64's may.
func TestBusLatencyRoundsProduct(t *testing.T) {
	b := Bus{BaseLatency: 100, ContentionFactor: 0.022}
	if got := b.Latency(6); got != 110 { // fused: 111
		t.Errorf("Latency(6) = %v ticks, want 110", int64(got))
	}
}

func TestBusLatencyMonotone(t *testing.T) {
	b := Bus{BaseLatency: 80, ContentionFactor: 0.3}
	prev := timeunit.Ticks(0)
	for n := 1; n <= 8; n++ {
		cur := b.Latency(n)
		if cur < prev {
			t.Errorf("latency decreased with more contenders at n=%d", n)
		}
		prev = cur
	}
}
