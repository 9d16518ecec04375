// Package cache models a shared last-level cache with way-based
// partitioning, the mechanism underneath Intel's Cache Allocation
// Technology (CAT) that vCAT [16] — and therefore vC2M — uses for shared
// cache isolation.
//
// The cache is set-associative with LRU replacement. Each core carries a
// capacity bitmask (CBM) of ways, as in CAT: a core may *hit* on a line in
// any way (CAT does not partition lookups), but its fills and evictions are
// confined to the ways its mask allows. Assigning disjoint contiguous
// masks to different cores therefore eliminates inter-core eviction
// interference — the property vC2M's allocation relies on when it hands
// each core a disjoint set of cache partitions.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes the cache geometry.
type Config struct {
	// Sets is the number of cache sets (power of two).
	Sets int
	// Ways is the associativity; one way corresponds to one vC2M cache
	// partition. At most 64 (the CBM width).
	Ways int
	// LineSize is the line size in bytes (power of two).
	LineSize int
}

// DefaultConfig mirrors the 20-way LLC of the paper's Xeon 2618L v3
// reference machine at a reduced scale suitable for simulation: 20 ways
// (one per partition) by 256 sets by 64-byte lines = 320 KiB.
var DefaultConfig = Config{Sets: 256, Ways: 20, LineSize: 64}

// Validate reports an error for inconsistent geometry.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache: Sets = %d, need a positive power of two", c.Sets)
	}
	if c.Ways <= 0 || c.Ways > 64 {
		return fmt.Errorf("cache: Ways = %d, need 1..64", c.Ways)
	}
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache: LineSize = %d, need a positive power of two", c.LineSize)
	}
	return nil
}

type line struct {
	tag   uint64
	valid bool
	core  int
	// lru is a per-set logical timestamp; larger = more recently used.
	lru uint64
}

// Stats counts per-core cache activity.
type Stats struct {
	Accesses uint64
	Misses   uint64
	// Evictions counts lines this core evicted (from any owner).
	Evictions uint64
}

// MissRate returns Misses/Accesses, or 0 with no accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a way-partitioned, set-associative LRU cache.
type Cache struct {
	cfg      Config
	sets     [][]line
	masks    []uint64
	stats    []Stats
	lruClock uint64
	setShift uint
	setMask  uint64
}

// New creates a cache for nCores cores. Every core starts with a full mask
// (all ways allowed — the unpartitioned configuration).
func New(cfg Config, nCores int) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nCores <= 0 {
		return nil, fmt.Errorf("cache: nCores = %d, need > 0", nCores)
	}
	c := &Cache{
		cfg:      cfg,
		sets:     make([][]line, cfg.Sets),
		masks:    make([]uint64, nCores),
		stats:    make([]Stats, nCores),
		setShift: uint(bits.TrailingZeros(uint(cfg.LineSize))),
		setMask:  uint64(cfg.Sets - 1),
	}
	for i := range c.sets {
		c.sets[i] = make([]line, cfg.Ways)
	}
	full := fullMask(cfg.Ways)
	for i := range c.masks {
		c.masks[i] = full
	}
	return c, nil
}

// SetMask assigns the core's capacity bitmask. Like CAT CBMs, the mask must
// be non-empty, contiguous, and within the cache's way count.
func (c *Cache) SetMask(core int, mask uint64) error {
	if core < 0 || core >= len(c.masks) {
		return fmt.Errorf("cache: core %d out of range", core)
	}
	if mask == 0 {
		return fmt.Errorf("cache: empty mask for core %d", core)
	}
	if mask&^fullMask(c.cfg.Ways) != 0 {
		return fmt.Errorf("cache: mask %#x exceeds %d ways", mask, c.cfg.Ways)
	}
	if !contiguousMask(mask) {
		return fmt.Errorf("cache: mask %#x is not contiguous (CAT requires contiguous CBMs)", mask)
	}
	c.masks[core] = mask
	return nil
}

// Mask returns the core's current capacity bitmask.
func (c *Cache) Mask(core int) uint64 { return c.masks[core] }

// PartitionDisjoint assigns disjoint contiguous masks: core i receives
// counts[i] ways, packed from way 0 upward. It fails if the total exceeds
// the way count. This is exactly how vC2M maps its per-core partition
// counts onto CAT.
func (c *Cache) PartitionDisjoint(counts []int) error {
	if len(counts) > len(c.masks) {
		return fmt.Errorf("cache: %d counts for %d cores", len(counts), len(c.masks))
	}
	total := 0
	for _, n := range counts {
		if n <= 0 {
			return fmt.Errorf("cache: non-positive way count %d", n)
		}
		total += n
	}
	if total > c.cfg.Ways {
		return fmt.Errorf("cache: %d ways requested, %d available", total, c.cfg.Ways)
	}
	base := 0
	for i, n := range counts {
		mask := fullMask(n) << uint(base)
		if err := c.SetMask(i, mask); err != nil {
			return err
		}
		base += n
	}
	return nil
}

// Access performs one memory access by the core at the byte address and
// reports whether it hit. Misses fill the LRU way among the core's allowed
// ways, evicting whatever was there.
func (c *Cache) Access(core int, addr uint64) bool {
	set := (addr >> c.setShift) & c.setMask
	tag := addr >> c.setShift >> uint(bits.TrailingZeros(uint(c.cfg.Sets)))
	lines := c.sets[set]
	st := &c.stats[core]
	st.Accesses++
	c.lruClock++

	// Lookup across all ways: CAT partitions allocation, not visibility.
	for w := range lines {
		if lines[w].valid && lines[w].tag == tag {
			lines[w].lru = c.lruClock
			return true
		}
	}
	st.Misses++

	// Fill: LRU among the core's allowed ways (invalid ways first).
	mask := c.masks[core]
	victim := -1
	var victimLRU uint64
	for w := range lines {
		if mask&(1<<uint(w)) == 0 {
			continue
		}
		if !lines[w].valid {
			victim = w
			break
		}
		if victim == -1 || lines[w].lru < victimLRU {
			victim = w
			victimLRU = lines[w].lru
		}
	}
	if victim == -1 {
		// Mask validated non-empty, so this cannot happen.
		panic("cache: no fill candidate")
	}
	if c.sets[set][victim].valid {
		st.Evictions++
	}
	c.sets[set][victim] = line{tag: tag, valid: true, core: core, lru: c.lruClock}
	return false
}

// Stats returns the core's counters.
func (c *Cache) Stats(core int) Stats { return c.stats[core] }

// Flush invalidates the entire cache contents (counters are kept).
func (c *Cache) Flush() {
	for s := range c.sets {
		for w := range c.sets[s] {
			c.sets[s][w] = line{}
		}
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// fullMask returns a capacity bitmask with the n lowest ways set, clamped
// to [0, 64] ways.
func fullMask(n int) uint64 {
	if n <= 0 {
		return 0
	}
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

// contiguousMask reports whether the set bits of m form one contiguous run.
// The empty mask is not contiguous (CAT rejects empty CBMs).
func contiguousMask(m uint64) bool {
	if m == 0 {
		return false
	}
	shifted := m >> uint(bits.TrailingZeros64(m))
	return shifted&(shifted+1) == 0
}
