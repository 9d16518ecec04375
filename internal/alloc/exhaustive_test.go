package alloc

import (
	"slices"
	"testing"

	"vc2m/internal/model"
	"vc2m/internal/parsec"
	"vc2m/internal/rngutil"
)

// exhaustiveFeasible decides schedulability of a tiny system by brute
// force: it enumerates every task-to-core assignment and every split of
// cache and BW partitions across the used cores, accepting if some
// configuration gives every core utilization at most 1 under flattening
// (which is optimal for per-core EDF: VCPU bandwidth equals task
// utilization, so per-core feasibility is exactly sum of u_i(c,b) <= 1).
// Only usable for very small instances.
func exhaustiveFeasible(tasks []*model.Task, plat model.Platform) bool {
	assign := make([]int, len(tasks))
	var tryAssign func(i int) bool
	tryAssign = func(i int) bool {
		if i == len(tasks) {
			return feasibleSplit(tasks, assign, plat)
		}
		for c := 0; c < plat.M; c++ {
			assign[i] = c
			if tryAssign(i + 1) {
				return true
			}
		}
		return false
	}
	return tryAssign(0)
}

// feasibleSplit checks whether some partition split schedules the given
// task-to-core assignment.
func feasibleSplit(tasks []*model.Task, assign []int, plat model.Platform) bool {
	cores := slices.Clone(assign)
	slices.Sort(cores)
	cores = slices.Compact(cores)
	cache := make(map[int]int, len(cores))
	bw := make(map[int]int, len(cores))

	var tryCache func(i, left int) bool
	var tryBW func(i, left int) bool

	coreOK := func(c int) bool {
		var u float64
		for ti, tc := range assign {
			if tc == c {
				u += tasks[ti].Util(cache[c], bw[c])
			}
		}
		return u <= 1+1e-9
	}

	tryBW = func(i, left int) bool {
		if i == len(cores) {
			for _, c := range cores {
				if !coreOK(c) {
					return false
				}
			}
			return true
		}
		maxHere := left - plat.Bmin*(len(cores)-i-1)
		if maxHere > plat.B {
			maxHere = plat.B
		}
		for n := plat.Bmin; n <= maxHere; n++ {
			bw[cores[i]] = n
			if tryBW(i+1, left-n) {
				return true
			}
		}
		return false
	}
	tryCache = func(i, left int) bool {
		if i == len(cores) {
			return tryBW(0, plat.B)
		}
		maxHere := left - plat.Cmin*(len(cores)-i-1)
		if maxHere > plat.C {
			maxHere = plat.C
		}
		for n := plat.Cmin; n <= maxHere; n++ {
			cache[cores[i]] = n
			if tryCache(i+1, left-n) {
				return true
			}
		}
		return false
	}
	return tryCache(0, plat.C)
}

// tinyPlatform keeps the exhaustive search tractable.
var tinyPlatform = model.Platform{Name: "tiny", M: 2, C: 6, B: 6, Cmin: 1, Bmin: 1}

// randomTinyTasks builds 2-4 benchmark-profiled tasks on the tiny
// platform.
func randomTinyTasks(rng *rngutil.RNG) []*model.Task {
	n := 2 + rng.Intn(3)
	tasks := make([]*model.Task, n)
	for i := range tasks {
		bm := parsec.All[rng.Intn(len(parsec.All))]
		period := 100.0 * float64(int(1)<<uint(rng.Intn(3)))
		util := rng.Uniform(0.15, 0.6)
		tasks[i] = &model.Task{
			ID:        string(rune('a' + i)),
			VM:        "vm",
			Period:    period,
			WCET:      bm.WCETTable(tinyPlatform, period*util),
			Benchmark: bm.Name,
		}
	}
	return tasks
}

// TestAllocatorSoundAgainstExhaustive cross-checks the vC2M allocator
// against brute force on tiny instances: whenever the heuristic says
// schedulable, the exhaustive search must agree (soundness — the
// heuristic can never over-promise). The converse may fail (it is a
// heuristic), and the test reports how often it finds the feasible
// solutions that exist.
func TestAllocatorSoundAgainstExhaustive(t *testing.T) {
	h := &Heuristic{Mode: Flattening}
	rng := rngutil.New(2024)
	heuristicYes, exhaustiveYes := 0, 0
	for trial := 0; trial < 25; trial++ {
		tasks := randomTinyTasks(rng)
		sys := &model.System{Platform: tinyPlatform, VMs: []*model.VM{{ID: "vm", Tasks: tasks}}}
		_, err := h.Allocate(sys, rngutil.New(int64(trial)))
		heuristic := err == nil
		exhaustive := exhaustiveFeasible(tasks, tinyPlatform)
		if heuristic {
			heuristicYes++
		}
		if exhaustive {
			exhaustiveYes++
		}
		if heuristic && !exhaustive {
			t.Fatalf("trial %d: heuristic schedulable but exhaustive search finds no feasible configuration", trial)
		}
	}
	if exhaustiveYes == 0 {
		t.Fatal("no feasible instances generated; test has no power")
	}
	// The heuristic should find most feasible solutions on these tiny
	// instances.
	if heuristicYes*2 < exhaustiveYes {
		t.Errorf("heuristic found %d of %d feasible instances — suspiciously weak",
			heuristicYes, exhaustiveYes)
	}
}

// TestAllSolutionsSoundAgainstExhaustive is the randomized differential
// sweep over every allocator the paper compares (PaperSolutions): none may
// ever admit a system the brute-force search proves infeasible. The
// exhaustive oracle checks flattening feasibility, which is optimal for
// per-core EDF, so it upper-bounds every sound analysis — including the
// overhead-aware existing CSA, whose pessimism only shrinks the set of
// admitted systems. Instances are regenerated from independent root seeds
// so each run covers a fresh slice of the space deterministically.
func TestAllSolutionsSoundAgainstExhaustive(t *testing.T) {
	solutions := PaperSolutions()
	for _, rootSeed := range []int64{1, 77, 4099} {
		rng := rngutil.New(rootSeed)
		feasible := 0
		for trial := 0; trial < 20; trial++ {
			tasks := randomTinyTasks(rng)
			sys := &model.System{Platform: tinyPlatform, VMs: []*model.VM{{ID: "vm", Tasks: tasks}}}
			exhaustive := exhaustiveFeasible(tasks, tinyPlatform)
			if exhaustive {
				feasible++
			}
			for _, sol := range solutions {
				_, err := sol.Allocate(sys, rngutil.New(rootSeed*1000+int64(trial)))
				if err == nil && !exhaustive {
					t.Errorf("root %d trial %d: %s admits a system the exhaustive search proves infeasible",
						rootSeed, trial, sol.Name())
				}
			}
		}
		if feasible == 0 {
			t.Errorf("root %d: no feasible instances generated; sweep has no power", rootSeed)
		}
	}
}
