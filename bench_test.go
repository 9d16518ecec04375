// Benchmark harness: one testing.B per table and figure of the paper's
// evaluation. Each benchmark regenerates its artifact at a reduced scale
// (so `go test -bench=.` finishes in minutes) and reports the headline
// quantities as custom metrics; the cmd/ tools run the full paper-scale
// sweeps. EXPERIMENTS.md records paper-versus-measured values.
package vc2m_test

import (
	"context"
	"testing"

	"vc2m/internal/experiment"
	"vc2m/internal/interference"
	"vc2m/internal/membus"
	"vc2m/internal/model"
	"vc2m/internal/provenance"
	"vc2m/internal/timeunit"
	"vc2m/internal/workload"
)

// --- Table 1: memory bandwidth regulator's overhead ---------------------

// BenchmarkTable1Throttle measures the BW enforcer path: the cost of the
// budget-exhausting request that marks the core throttled (Table 1,
// "Throttle"). Each iteration performs one throttling request; the
// amortized per-4-iterations replenish that re-arms the cores is part of
// the loop (it is the cheaper of the two paths and benchmarked separately
// below).
func BenchmarkTable1Throttle(b *testing.B) {
	reg, err := membus.New(membus.Config{
		Period:  timeunit.FromMillis(1),
		Budgets: []int64{1, 1, 1, 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Request(i % 4) // budget 1: every granted request throttles
		if i%4 == 3 {
			reg.Replenish()
		}
	}
}

// BenchmarkTable1Replenish measures the BW refiller: one full per-period
// budget replenishment across all cores (Table 1, "Memory BW budget
// replenishment").
func BenchmarkTable1Replenish(b *testing.B) {
	reg, err := membus.New(membus.Config{
		Period:  timeunit.FromMillis(1),
		Budgets: []int64{500, 500, 500, 500},
	})
	if err != nil {
		b.Fatal(err)
	}
	reg.OnReplenish = func(core int, wasThrottled bool) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < 4; c++ {
			reg.RequestN(c, 500) // exhaust so the refill does full work
		}
		reg.Replenish()
	}
}

// BenchmarkTable1System runs the full regulated hypervisor simulation and
// reports the measured min/avg/max of both Table 1 handlers in
// microseconds, the form the paper's table uses.
func BenchmarkTable1System(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunOverhead(experiment.OverheadConfig{
			VCPUs: 24, HorizonMs: 500, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Throttle.Mean(), "us/throttle")
		b.ReportMetric(res.BWReplenish.Mean(), "us/bw-replenish")
	}
}

// --- Table 2: scheduler's overhead at 24 and 96 VCPUs --------------------

func benchTable2(b *testing.B, vcpus int) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunOverhead(experiment.OverheadConfig{
			VCPUs: vcpus, HorizonMs: 500, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.BudgetReplenish.Mean(), "us/budget-replenish")
		b.ReportMetric(res.Scheduling.Mean(), "us/schedule")
		b.ReportMetric(res.ContextSwitch.Mean(), "us/ctx-switch")
	}
}

// BenchmarkTable2VCPUs24 reproduces Table 2's 24-VCPU column group.
func BenchmarkTable2VCPUs24(b *testing.B) { benchTable2(b, 24) }

// BenchmarkTable2VCPUs96 reproduces Table 2's 96-VCPU column group; the
// paper's observation is that the per-event cost grows only slowly from
// the 24-VCPU configuration.
func BenchmarkTable2VCPUs96(b *testing.B) { benchTable2(b, 96) }

// --- Section 3.3: impact of resource isolation on WCET -------------------

// BenchmarkSec33Isolation reproduces the WCET-isolation study for a
// memory-bound benchmark: it reports the slowdown from unregulated
// co-running and the (smaller) slowdown under vC2M isolation.
func BenchmarkSec33Isolation(b *testing.B) {
	cfg := interference.DefaultConfig()
	cfg.OpsPerTask = 50000
	for i := 0; i < b.N; i++ {
		row, err := interference.Study(cfg, "canneal", 4, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(row.SharedSlowdown(), "x-shared")
		b.ReportMetric(row.IsolatedSlowdown(), "x-vc2m")
	}
}

// --- Figures 2 and 3: schedulability sweeps ------------------------------

// benchSched runs a reduced schedulability sweep and reports the knee
// utilization (the largest utilization with 100% schedulable tasksets) of
// the best vC2M solution and of the baseline — the two numbers behind the
// paper's "2.6x workload increase" headline.
func benchSched(b *testing.B, plat model.Platform, dist workload.Distribution) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunSchedulability(experiment.SchedConfig{
			Platform:         plat,
			Dist:             dist,
			UtilMin:          0.2,
			UtilMax:          2.0,
			UtilStep:         0.2,
			TasksetsPerPoint: 5,
			Seed:             1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Knee("Heuristic (flattening)"), "knee-vc2m")
		b.ReportMetric(res.Knee("Baseline (existing CSA)"), "knee-baseline")
		b.ReportMetric(res.Knee("Heuristic (overhead-free CSA)"), "knee-overhead-free")
	}
}

// BenchmarkFig2aPlatformA reproduces Figure 2(a): Platform A (4 cores, 20
// partitions), uniform utilization distribution.
func BenchmarkFig2aPlatformA(b *testing.B) {
	benchSched(b, model.PlatformA, workload.Uniform)
}

// BenchmarkFig2bPlatformB reproduces Figure 2(b): Platform B (6 cores, 20
// partitions).
func BenchmarkFig2bPlatformB(b *testing.B) {
	benchSched(b, model.PlatformB, workload.Uniform)
}

// BenchmarkFig2cPlatformC reproduces Figure 2(c): Platform C (4 cores, 12
// partitions).
func BenchmarkFig2cPlatformC(b *testing.B) {
	benchSched(b, model.PlatformC, workload.Uniform)
}

// BenchmarkFig3aBimodalLight reproduces Figure 3(a): Platform A, bimodal
// light distribution.
func BenchmarkFig3aBimodalLight(b *testing.B) {
	benchSched(b, model.PlatformA, workload.BimodalLight)
}

// BenchmarkFig3bBimodalMedium reproduces Figure 3(b): bimodal medium.
func BenchmarkFig3bBimodalMedium(b *testing.B) {
	benchSched(b, model.PlatformA, workload.BimodalMedium)
}

// BenchmarkFig3cBimodalHeavy reproduces Figure 3(c): bimodal heavy.
func BenchmarkFig3cBimodalHeavy(b *testing.B) {
	benchSched(b, model.PlatformA, workload.BimodalHeavy)
}

// BenchmarkSweepPaper runs the sweep the allocation server serves for
// Figure 2(a) at paper scale, in process: Platform A, uniform, util 0.2 to
// 2.0 in steps of 0.1, 50 tasksets per point, the five paper solutions,
// two workers and a provenance recorder for the per-case verdicts, as the
// server's sweep executor configures it. Profiling it shows the allocators'
// share of a served sweep without the server or the wire.
func BenchmarkSweepPaper(b *testing.B) {
	b.ReportAllocs()
	tasksets := 0
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunSchedulability(experiment.SchedConfig{
			Platform:         model.PlatformA,
			Dist:             workload.Uniform,
			UtilMin:          0.2,
			UtilMax:          2.0,
			UtilStep:         0.1,
			TasksetsPerPoint: 50,
			Seed:             1,
			Parallel:         2,
			Provenance:       provenance.New(),
			Context:          context.Background(),
		})
		if err != nil {
			b.Fatal(err)
		}
		tasksets += res.Tasksets
	}
	b.ReportMetric(float64(tasksets)/b.Elapsed().Seconds(), "tasksets/s")
}

// --- Figure 4: analysis running time -------------------------------------

// BenchmarkFig4RunningTime reproduces Figure 4: the mean per-taskset
// analysis time of the overhead-free heuristic versus the existing-CSA
// heuristic at high utilization. The paper's observation — the
// overhead-free analysis is roughly an order of magnitude faster — shows
// up as the ratio of the two reported metrics.
func BenchmarkFig4RunningTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunSchedulability(experiment.SchedConfig{
			Platform:         model.PlatformA,
			Dist:             workload.Uniform,
			UtilMin:          1.5,
			UtilMax:          1.5,
			UtilStep:         1,
			TasksetsPerPoint: 10,
			Seed:             1,
		})
		if err != nil {
			b.Fatal(err)
		}
		var of, ex float64
		for _, s := range res.Series {
			switch s.Solution {
			case "Heuristic (overhead-free CSA)":
				of = s.Points[0].AvgSeconds
			case "Heuristic (existing CSA)":
				ex = s.Points[0].AvgSeconds
			}
		}
		b.ReportMetric(of*1000, "ms/overhead-free")
		b.ReportMetric(ex*1000, "ms/existing-csa")
	}
}
