package cache

import (
	"math"
	"testing"
	"testing/quick"
)

func mk(t *testing.T, cfg Config, cores int) *Cache {
	t.Helper()
	c, err := New(cfg, cores)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var smallCfg = Config{Sets: 4, Ways: 4, LineSize: 64}

func addr(set, tag int, cfg Config) uint64 {
	return uint64(tag)*uint64(cfg.Sets)*uint64(cfg.LineSize) + uint64(set)*uint64(cfg.LineSize)
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig.Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
	bad := []Config{
		{Sets: 3, Ways: 4, LineSize: 64},
		{Sets: 0, Ways: 4, LineSize: 64},
		{Sets: 4, Ways: 0, LineSize: 64},
		{Sets: 4, Ways: 65, LineSize: 64},
		{Sets: 4, Ways: 4, LineSize: 48},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", cfg)
		}
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(Config{Sets: 3, Ways: 2, LineSize: 64}, 1); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := New(smallCfg, 0); err == nil {
		t.Error("zero cores accepted")
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := mk(t, smallCfg, 1)
	a := addr(0, 1, smallCfg)
	if c.Access(0, a) {
		t.Error("cold access should miss")
	}
	if !c.Access(0, a) {
		t.Error("second access should hit")
	}
	st := c.Stats(0)
	if st.Accesses != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 2 accesses, 1 miss", st)
	}
}

func TestSameSetDifferentTags(t *testing.T) {
	c := mk(t, smallCfg, 1)
	// 4 ways: 4 distinct tags fit, the 5th evicts the LRU (tag 0).
	for tag := 0; tag < 4; tag++ {
		c.Access(0, addr(2, tag, smallCfg))
	}
	for tag := 0; tag < 4; tag++ {
		if !c.Access(0, addr(2, tag, smallCfg)) {
			t.Errorf("tag %d should still be resident", tag)
		}
	}
	c.Access(0, addr(2, 99, smallCfg)) // evicts LRU = tag 0
	if c.Access(0, addr(2, 0, smallCfg)) {
		t.Error("tag 0 should have been evicted as LRU")
	}
	if !c.Access(0, addr(2, 3, smallCfg)) {
		t.Error("tag 3 should still be resident")
	}
}

func TestLRUUpdatedOnHit(t *testing.T) {
	c := mk(t, smallCfg, 1)
	for tag := 0; tag < 4; tag++ {
		c.Access(0, addr(1, tag, smallCfg))
	}
	c.Access(0, addr(1, 0, smallCfg)) // refresh tag 0
	c.Access(0, addr(1, 50, smallCfg))
	// LRU victim should now be tag 1, not tag 0.
	if !c.Access(0, addr(1, 0, smallCfg)) {
		t.Error("refreshed line was evicted")
	}
	if c.Access(0, addr(1, 1, smallCfg)) {
		t.Error("tag 1 should have been the LRU victim")
	}
}

func TestMaskValidation(t *testing.T) {
	c := mk(t, smallCfg, 2)
	if err := c.SetMask(0, 0b0011); err != nil {
		t.Errorf("contiguous mask rejected: %v", err)
	}
	if err := c.SetMask(0, 0); err == nil {
		t.Error("empty mask accepted")
	}
	if err := c.SetMask(0, 0b0101); err == nil {
		t.Error("non-contiguous mask accepted")
	}
	if err := c.SetMask(0, 0b10000); err == nil {
		t.Error("mask beyond way count accepted")
	}
	if err := c.SetMask(5, 1); err == nil {
		t.Error("core out of range accepted")
	}
}

func TestPartitionDisjoint(t *testing.T) {
	c := mk(t, smallCfg, 2)
	if err := c.PartitionDisjoint([]int{1, 3}); err != nil {
		t.Fatal(err)
	}
	if c.Mask(0) != 0b0001 || c.Mask(1) != 0b1110 {
		t.Errorf("masks = %#x, %#x, want 0x1, 0xe", c.Mask(0), c.Mask(1))
	}
	if err := c.PartitionDisjoint([]int{3, 3}); err == nil {
		t.Error("over-allocation accepted")
	}
	if err := c.PartitionDisjoint([]int{0, 2}); err == nil {
		t.Error("zero count accepted")
	}
	if err := c.PartitionDisjoint([]int{1, 1, 1}); err == nil {
		t.Error("more counts than cores accepted")
	}
}

func TestIsolationUnderDisjointMasks(t *testing.T) {
	// Core 1 streams through a huge footprint; with disjoint partitions it
	// must not evict core 0's resident lines.
	c := mk(t, smallCfg, 2)
	if err := c.PartitionDisjoint([]int{2, 2}); err != nil {
		t.Fatal(err)
	}
	// Core 0 loads two lines per set (its 2 ways).
	for set := 0; set < smallCfg.Sets; set++ {
		c.Access(0, addr(set, 0, smallCfg))
		c.Access(0, addr(set, 1, smallCfg))
	}
	// Core 1 streams 100 distinct tags through every set.
	for tag := 10; tag < 110; tag++ {
		for set := 0; set < smallCfg.Sets; set++ {
			c.Access(1, addr(set, tag, smallCfg))
		}
	}
	// Core 0's lines must all still hit.
	for set := 0; set < smallCfg.Sets; set++ {
		if !c.Access(0, addr(set, 0, smallCfg)) || !c.Access(0, addr(set, 1, smallCfg)) {
			t.Fatalf("core 0 lost its partition-resident lines at set %d", set)
		}
	}
}

func TestInterferenceWithSharedMask(t *testing.T) {
	// Without partitioning, the same streaming workload evicts core 0.
	c := mk(t, smallCfg, 2)
	for set := 0; set < smallCfg.Sets; set++ {
		c.Access(0, addr(set, 0, smallCfg))
	}
	for tag := 10; tag < 110; tag++ {
		for set := 0; set < smallCfg.Sets; set++ {
			c.Access(1, addr(set, tag, smallCfg))
		}
	}
	evicted := 0
	for set := 0; set < smallCfg.Sets; set++ {
		if !c.Access(0, addr(set, 0, smallCfg)) {
			evicted++
		}
	}
	if evicted != smallCfg.Sets {
		t.Errorf("expected full eviction without isolation, got %d/%d", evicted, smallCfg.Sets)
	}
}

func TestCrossCoreHitAllowed(t *testing.T) {
	// CAT partitions fills, not lookups: core 1 can hit a line core 0
	// brought in (shared data).
	c := mk(t, smallCfg, 2)
	if err := c.PartitionDisjoint([]int{2, 2}); err != nil {
		t.Fatal(err)
	}
	a := addr(0, 7, smallCfg)
	c.Access(0, a)
	if !c.Access(1, a) {
		t.Error("cross-core hit on shared line should be allowed")
	}
}

func TestFlushAndResetStats(t *testing.T) {
	c := mk(t, smallCfg, 1)
	a := addr(0, 1, smallCfg)
	c.Access(0, a)
	c.Flush()
	if c.Access(0, a) {
		t.Error("access after Flush should miss")
	}
	// Flush keeps the counters: the access before it and the one after.
	if st := c.Stats(0); st.Accesses != 2 || st.Misses != 2 {
		t.Errorf("stats after Flush = %+v, want 2 accesses, 2 misses", st)
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if math.Float64bits(s.MissRate()) != 0 {
		t.Error("empty stats should have zero miss rate")
	}
	s = Stats{Accesses: 10, Misses: 4}
	if math.Float64bits(s.MissRate()) != math.Float64bits(0.4) {
		t.Errorf("MissRate = %v, want 0.4", s.MissRate())
	}
}

func TestMoreWaysMonotonicallyFewerMisses(t *testing.T) {
	// For an LRU-friendly cyclic working set, more allocated ways never
	// increase misses — the monotonicity the WCET model assumes.
	run := func(ways int) uint64 {
		c := mk(t, Config{Sets: 8, Ways: 8, LineSize: 64}, 1)
		if err := c.SetMask(0, fullMask(ways)); err != nil {
			t.Fatal(err)
		}
		cfg := Config{Sets: 8, Ways: 8, LineSize: 64}
		for rep := 0; rep < 50; rep++ {
			for tag := 0; tag < 6; tag++ {
				for set := 0; set < 8; set++ {
					c.Access(0, addr(set, tag, cfg))
				}
			}
		}
		return c.Stats(0).Misses
	}
	prev := run(1)
	for ways := 2; ways <= 8; ways++ {
		cur := run(ways)
		if cur > prev {
			t.Errorf("misses increased from %d to %d going to %d ways", prev, cur, ways)
		}
		prev = cur
	}
}

func TestEvictionCounting(t *testing.T) {
	c := mk(t, Config{Sets: 1, Ways: 1, LineSize: 64}, 1)
	cfg := Config{Sets: 1, Ways: 1, LineSize: 64}
	c.Access(0, addr(0, 0, cfg))
	c.Access(0, addr(0, 1, cfg)) // evicts
	if st := c.Stats(0); st.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", st.Evictions)
	}
}

func TestAccessAddressMappingProperty(t *testing.T) {
	// Accessing the same address twice in a row always hits the second
	// time regardless of geometry.
	f := func(raw uint32, waysRaw, setsExp uint8) bool {
		ways := int(waysRaw%8) + 1
		sets := 1 << (setsExp % 6)
		c, err := New(Config{Sets: sets, Ways: ways, LineSize: 64}, 1)
		if err != nil {
			return false
		}
		a := uint64(raw)
		c.Access(0, a)
		return c.Access(0, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFullMask(t *testing.T) {
	cases := []struct {
		n    int
		want uint64
	}{
		{0, 0},
		{1, 0b1},
		{4, 0b1111},
		{64, ^uint64(0)},
		{-3, 0},
		{70, ^uint64(0)},
	}
	for _, c := range cases {
		if got := fullMask(c.n); got != c.want {
			t.Errorf("fullMask(%d) = %#x, want %#x", c.n, got, c.want)
		}
	}
}

func TestContiguousMask(t *testing.T) {
	cases := []struct {
		m    uint64
		want bool
	}{
		{0, false},
		{0b1, true},
		{0b110, true},
		{0b101, false},
		{0b111100, true},
		{1 << 63, true},
		{(1 << 63) | 1, false},
	}
	for _, c := range cases {
		if got := contiguousMask(c.m); got != c.want {
			t.Errorf("contiguousMask(%#x) = %v, want %v", c.m, got, c.want)
		}
	}
}
