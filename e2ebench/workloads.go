package main

import (
	"encoding/json"
	"fmt"

	"vc2m/internal/model"
	"vc2m/internal/rngutil"
	"vc2m/internal/server"
	"vc2m/internal/workload"
)

// workloadSpec is one traffic mix; the package doc says why each was
// chosen. Every workload is a closed loop: each client sends its next
// request only after the previous report is in hand, as an orchestrator
// placing a VM waits for the verdict before it acts.
type workloadSpec struct {
	name string
	kind string // server.KindRun, server.KindChurn or server.KindSweep
	mode string // analysis mode on the wire
	// simulateMs is the hypersim horizon of every cold request (0: none).
	simulateMs float64
	// requests is the number of timed requests per rep.
	requests int
	clients  int
	// unit names what throughput counts: requests, churn events or tasksets.
	unit string
}

var workloads = []workloadSpec{
	{
		name: "cold-existing", kind: server.KindRun, mode: "existing",
		requests: 200, clients: 2, unit: "request",
	},
	{
		name: "cold-flattening-sim", kind: server.KindRun, mode: "flattening", simulateMs: 1100,
		requests: 300, clients: 2, unit: "request",
	},
	{
		name: "churn-existing", kind: server.KindChurn, mode: "existing",
		requests: 400, clients: 2, unit: "event",
	},
	{
		name: "sweep-paper", kind: server.KindSweep,
		requests: 1, clients: 1, unit: "taskset",
	},
}

// Input shapes. Cold systems are the paper's uniform generator on
// platform A at reference utilization 1.2 over two VMs. A churn request
// replaces eight of a base fleet's twelve one-task VMs, one per event,
// with fresh one-task VMs drawn like the base ones.
const (
	coldUtil      = 1.2
	coldVMs       = 2
	churnBaseVMs  = 12
	churnEvents   = 8
	churnVMUtil   = 1.0 / churnBaseVMs
	sampleChecked = 8 // requests per rep whose served bytes are checked in-process
)

// churnBases is how many base runs a churn rep spreads its requests over.
// A base fleet's layout sets how often its arrivals need a repack, and a
// repack multiplies the work and the decisions a report retains, so with
// few bases per rep the rep-to-rep spread would be the fleet-to-fleet
// spread; fifty average it out.
func churnBases(quick bool) int {
	if quick {
		return 1
	}
	return 50
}

// sweepSpec is the sweep-paper request: the paper's grid (platform A,
// uniform, 50 tasksets per point) at util 0.2..2.0 step 0.1.
func sweepSpec(quick bool) *server.SweepSpec {
	s := &server.SweepSpec{Platform: "A", Dist: "uniform", UtilMin: 0.2, UtilMax: 2.0, UtilStep: 0.1, TasksetsPerPoint: 50, Parallel: 2}
	if quick {
		s.UtilStep, s.TasksetsPerPoint = 1.8, 2
	}
	return s
}

// checkSweepSpec is the small sweep every sweep-paper rep serves during
// set-up and checks byte for byte against an in-process run.
func checkSweepSpec() *server.SweepSpec {
	return &server.SweepSpec{Platform: "A", Dist: "uniform", UtilMin: 0.2, UtilMax: 2.0, UtilStep: 0.6, TasksetsPerPoint: 4, Parallel: 2}
}

// sweepTasksets is the number of tasksets a sweep spec analyzes.
func sweepTasksets(s *server.SweepSpec) int {
	points := int((s.UtilMax-s.UtilMin)/s.UtilStep+1e-9) + 1
	return points * s.TasksetsPerPoint
}

// repInputs is one rep's pre-encoded request bodies: everything the timed
// loop sends is generated and JSON-encoded before timing starts.
type repInputs struct {
	bodies [][]byte
	// Churn: the base-run bodies, their in-process allocations, and which
	// base each churn request targets.
	bases      [][]byte
	baseAllocs []*model.Allocation
	baseOf     []int
	// Sweep: the set-up check sweep.
	check []byte
	// units is what the rep's requests add up to in the workload's unit.
	units int
}

// mix derives an independent generator seed from the run seed and a path
// of indices (splitmix64 finalizer over each step), so rep r's inputs
// depend only on (seed, r) and never on how many reps ran before.
func mix(seed int64, path ...int) int64 {
	z := uint64(seed)
	for _, p := range path {
		z += 0x9e3779b97f4a7c15 * uint64(p+1)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z >> 1)
}

// makeInputs generates and encodes rep's requests. Churn base fleets are
// allocated in-process here: a fleet the existing CSA rejects is redrawn,
// so no churn request ever targets a base without an allocation.
func makeInputs(w workloadSpec, seed int64, rep int, quick bool) (*repInputs, error) {
	n := w.requests
	if quick && n > 4 {
		n = 4
	}
	in := &repInputs{}
	switch w.kind {
	case server.KindRun:
		for i := 0; i < n; i++ {
			gen := mix(seed, rep, i)
			sys, err := workload.Generate(workload.Config{
				Platform: model.PlatformA, TargetRefUtil: coldUtil, Dist: workload.Uniform, NumVMs: coldVMs,
			}, rngutil.New(gen))
			if err != nil {
				return nil, err
			}
			if err := in.add(server.SubmitRequest{
				Kind: server.KindRun, Mode: w.mode, Seed: int64(i), GenSeed: gen,
				System: sys, SimulateMs: w.simulateMs,
			}); err != nil {
				return nil, err
			}
		}
		in.units = n
	case server.KindChurn:
		for b := 0; b < churnBases(quick); b++ {
			if err := in.addBase(w, seed, rep, b); err != nil {
				return nil, err
			}
		}
		for i := 0; i < n; i++ {
			events := make([]server.ChurnEvent, churnEvents)
			for e := range events {
				vm, err := oneTaskVM(fmt.Sprintf("a%d-%d", i, e), mix(seed, rep, i, e))
				if err != nil {
					return nil, err
				}
				events[e] = server.ChurnEvent{Departures: []string{fmt.Sprintf("vm%d", e)}, Arrivals: []*model.VM{vm}}
			}
			if err := in.add(server.SubmitRequest{Mode: w.mode, Seed: int64(i), Churn: &server.ChurnSpec{Events: events}}); err != nil {
				return nil, err
			}
			in.baseOf = append(in.baseOf, i%len(in.bases))
		}
		in.units = n * churnEvents
	case server.KindSweep:
		spec := sweepSpec(quick)
		if err := in.add(server.SubmitRequest{Kind: server.KindSweep, Seed: mix(seed, rep), Sweep: spec}); err != nil {
			return nil, err
		}
		check, err := json.Marshal(server.SubmitRequest{Kind: server.KindSweep, Seed: mix(seed, rep, 1), Sweep: checkSweepSpec()})
		if err != nil {
			return nil, err
		}
		in.check = check
		in.units = sweepTasksets(spec)
	}
	return in, nil
}

func (in *repInputs) add(req server.SubmitRequest) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	in.bodies = append(in.bodies, body)
	return nil
}

// addBase draws base fleet b of a churn rep until the existing CSA admits
// it, and keeps its body and in-process allocation: the allocation the
// server computes for the same body, since the base request's seed is b.
func (in *repInputs) addBase(w workloadSpec, seed int64, rep, b int) error {
	mode, _, err := parseMode(w.mode)
	if err != nil {
		return err
	}
	for attempt := 0; attempt < 100; attempt++ {
		gen := mix(seed, rep, -1-b, attempt)
		sys := &model.System{Platform: model.PlatformA}
		for v := 0; v < churnBaseVMs; v++ {
			vm, err := oneTaskVM(fmt.Sprintf("vm%d", v), mix(gen, v))
			if err != nil {
				return err
			}
			sys.VMs = append(sys.VMs, vm)
		}
		body, err := json.Marshal(server.SubmitRequest{Kind: server.KindRun, Mode: w.mode, Seed: int64(b), GenSeed: gen, System: sys})
		if err != nil {
			return err
		}
		if a, _, err := (&replayer{}).allocate(nil, sys, mode, rngutil.New(int64(b)), nil); err == nil {
			in.bases = append(in.bases, body)
			in.baseAllocs = append(in.baseAllocs, a)
			return nil
		}
	}
	return fmt.Errorf("churn base %d: no schedulable fleet in 100 draws", b)
}

// oneTaskVM draws a one-task VM at target reference utilization 1/12 (the
// generator stops after the first task, whose utilization is uniform in
// [0.1, 0.4] before cache/BW scaling).
func oneTaskVM(id string, seed int64) (*model.VM, error) {
	s, err := workload.Generate(workload.Config{
		Platform: model.PlatformA, TargetRefUtil: churnVMUtil, Dist: workload.Uniform, NumVMs: 1, MaxTasks: 1,
	}, rngutil.New(seed))
	if err != nil {
		return nil, err
	}
	vm := s.VMs[0]
	vm.ID = id
	for j, t := range vm.Tasks {
		t.ID = fmt.Sprintf("%s-t%d", id, j)
		t.VM = id
	}
	return vm, nil
}
