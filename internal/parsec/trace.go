package parsec

import (
	"fmt"

	"vc2m/internal/cache"
	"vc2m/internal/model"
	"vc2m/internal/rngutil"
)

// TraceConfig parameterizes trace-driven profiling.
type TraceConfig struct {
	// Sets and LineSize describe the simulated LLC geometry; the way count
	// is taken from the platform's partition count. Zero values default to
	// 256 sets of 64-byte lines.
	Sets     int
	LineSize int
	// Ops is the number of operations simulated per cache allocation;
	// zero defaults to 50000.
	Ops int
	// HitLatency, MissLatency and ComputeLatency are per-event costs in
	// abstract cycles; zeros default to 1, 20 and 1.
	HitLatency     float64
	MissLatency    float64
	ComputeLatency float64
	// BWPerPartition is the number of misses one bandwidth partition can
	// serve per MissLatency-cycle; memory time is bounded below by
	// misses/(b*BWPerPartition) cycles * MissLatency. Zero defaults to
	// 0.35, which yields bandwidth saturation points comparable to the
	// analytic profiles.
	BWPerPartition float64
	// Seed drives the synthetic access stream.
	Seed int64
}

func (c TraceConfig) withDefaults() TraceConfig {
	if c.Sets == 0 {
		c.Sets = 256
	}
	if c.LineSize == 0 {
		c.LineSize = 64
	}
	if c.Ops == 0 {
		c.Ops = 50000
	}
	if c.HitLatency == 0 { //vc2m:floateq unset-config sentinel
		c.HitLatency = 1
	}
	if c.MissLatency == 0 { //vc2m:floateq unset-config sentinel
		c.MissLatency = 20
	}
	if c.ComputeLatency == 0 { //vc2m:floateq unset-config sentinel
		c.ComputeLatency = 1
	}
	if c.BWPerPartition == 0 { //vc2m:floateq unset-config sentinel
		c.BWPerPartition = 0.35
	}
	return c
}

// TraceProfile derives the benchmark's slowdown table by measurement
// rather than from the closed-form model: for each cache allocation c it
// replays the benchmark's synthetic access stream (uniform references over
// its working set, interleaved with compute) through the way-partitioned
// LRU cache simulator and counts real misses; the bandwidth dimension then
// follows the standard latency-versus-bandwidth bound
//
//	memTime(c, b) = max(misses(c) * L, misses(c) / (b * R) * L)
//
// and the table is normalized to 1 at the full allocation. This is the
// "WCET values can be obtained by measurement on vC2M" path of Section
// 4.1, standing in for profiling real binaries on the prototype.
//
// Measured miss counts are monotonized (more ways never increases misses;
// residual sampling noise is clamped) so the returned table satisfies the
// model invariants the allocator relies on.
func (bm Benchmark) TraceProfile(p model.Platform, cfg TraceConfig) (*model.ResourceTable, error) {
	cfg = cfg.withDefaults()
	geo := cache.Config{Sets: cfg.Sets, Ways: p.C, LineSize: cfg.LineSize}
	if err := geo.Validate(); err != nil {
		return nil, err
	}

	wsLines := int(bm.WorkingSet * float64(cfg.Sets))
	if wsLines < 1 {
		wsLines = 1
	}
	memFrac := 1 - bm.CPUFrac

	// Measure misses at each way count with a fresh cache and an identical
	// access stream (same seed), so the c-dimension differences come from
	// capacity alone.
	misses := make([]float64, p.C+1)
	var computeOps, memOps float64
	for c := p.Cmin; c <= p.C; c++ {
		llc, err := cache.New(geo, 1)
		if err != nil {
			return nil, err
		}
		mask := uint64(1)<<uint(c) - 1
		if err := llc.SetMask(0, mask); err != nil {
			return nil, err
		}
		rng := rngutil.New(cfg.Seed)
		var cOps, mOps float64
		for op := 0; op < cfg.Ops; op++ {
			cOps++
			if rng.Float64() >= memFrac {
				continue
			}
			mOps++
			line := uint64(rng.Intn(wsLines))
			llc.Access(0, line*uint64(cfg.LineSize))
		}
		misses[c] = float64(llc.Stats(0).Misses)
		computeOps, memOps = cOps, mOps
	}
	// Monotonize: more ways never increases misses.
	for c := p.Cmin + 1; c <= p.C; c++ {
		if misses[c] > misses[c-1] {
			misses[c] = misses[c-1]
		}
	}
	_ = memOps

	// The conversions round each product before the sum, which a
	// compiler may otherwise fuse into an FMA.
	time := func(c, b int) float64 {
		cpu := float64(computeOps * cfg.ComputeLatency)
		hits := float64((memOps - misses[c]) * cfg.HitLatency)
		mem := float64(misses[c] * cfg.MissLatency)
		if bw := misses[c] / (float64(b) * cfg.BWPerPartition) * cfg.MissLatency; bw > mem {
			mem = bw
		}
		return cpu + hits + mem
	}

	ref := time(p.C, p.B)
	if ref <= 0 {
		return nil, fmt.Errorf("parsec: trace profile for %s produced non-positive reference time", bm.Name)
	}
	tab := model.NewResourceTableFor(p)
	tab.Fill(func(c, b int) float64 { return time(c, b) / ref })
	return tab, nil
}
