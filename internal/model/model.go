// Package model defines the cache- and memory-bandwidth-aware task, VCPU,
// VM and platform model of vC2M (Section 4.1 of the paper).
//
// The platform has M identical cores, a shared cache divided into C
// equal-size partitions, and a memory bus divided into B equal-size
// bandwidth (BW) partitions. A core may be allocated between Cmin and C
// cache partitions and between Bmin and B BW partitions.
//
// Each task tau_i = (p_i, {e_i(c,b)}) is an independent implicit-deadline
// periodic task whose WCET e_i(c,b) depends on the cache and BW partitions
// allocated to its core. e_i* = e_i(C,B) is the reference WCET and
// s_i(c,b) = e_i(c,b)/e_i* the slowdown vector, which captures the task's
// sensitivity to cache and BW. VCPUs are modeled identically with budget
// functions Theta_j(c,b).
package model

import (
	"errors"
	"fmt"
	"strings"
)

// Platform describes the multicore hardware configuration.
//
// The JSON tags on this and every other wire-crossing model type are the
// vC2M wire schema (systems and allocations travel between the CLIs, the
// allocation server and its clients as JSON): explicit snake_case names,
// with every unit-carrying field suffixed by its unit (_ms). The schema is
// covered by encode/decode/encode byte-identity tests in json_test.go.
type Platform struct {
	// Name identifies the configuration in reports (e.g. "A").
	Name string `json:"name"`
	// M is the number of identical physical cores.
	M int `json:"m"`
	// C is the total number of equal-size shared-cache partitions.
	C int `json:"c"`
	// B is the total number of equal-size memory-bandwidth partitions.
	B int `json:"b"`
	// Cmin is the minimum number of cache partitions a core can be
	// allocated (hardware constraint; Intel CAT requires at least 2 ways).
	Cmin int `json:"cmin"`
	// Bmin is the minimum number of BW partitions per core.
	Bmin int `json:"bmin"`
}

// Validate reports an error if the platform parameters are inconsistent.
func (p Platform) Validate() error {
	switch {
	case p.M <= 0:
		return fmt.Errorf("platform %s: M = %d, need > 0", p.Name, p.M)
	case p.Cmin <= 0 || p.Bmin <= 0:
		return fmt.Errorf("platform %s: Cmin/Bmin = %d/%d, need > 0", p.Name, p.Cmin, p.Bmin)
	case p.C < p.Cmin:
		return fmt.Errorf("platform %s: C = %d < Cmin = %d", p.Name, p.C, p.Cmin)
	case p.B < p.Bmin:
		return fmt.Errorf("platform %s: B = %d < Bmin = %d", p.Name, p.B, p.Bmin)
	}
	return nil
}

// The three evaluation platforms from Section 5.1. The maximum number of BW
// partitions equals the maximum number of cache partitions (C = B), and the
// profiling sweep in the paper uses c = 2..20, so Cmin = 2 and Bmin = 1.
var (
	// PlatformA models the Intel Xeon 2618L v3 configuration: 4 cores, 20
	// cache partitions.
	PlatformA = Platform{Name: "A", M: 4, C: 20, B: 20, Cmin: 2, Bmin: 1}
	// PlatformB models the Intel Xeon D-1528 configuration: 6 cores, 20
	// cache partitions.
	PlatformB = Platform{Name: "B", M: 6, C: 20, B: 20, Cmin: 2, Bmin: 1}
	// PlatformC models the Intel Xeon D-1518 configuration: 4 cores, 12
	// cache partitions.
	PlatformC = Platform{Name: "C", M: 4, C: 12, B: 12, Cmin: 2, Bmin: 1}
)

// PlatformByName returns the named evaluation platform ("A", "B" or "C").
func PlatformByName(name string) (Platform, error) {
	switch name {
	case "A", "a":
		return PlatformA, nil
	case "B", "b":
		return PlatformB, nil
	case "C", "c":
		return PlatformC, nil
	}
	return Platform{}, fmt.Errorf("model: unknown platform %q (want A, B or C)", name)
}

// ResourceTable is a dense table of float64 values indexed by a cache
// allocation c in [Cmin, C] and a BW allocation b in [Bmin, B]. It stores
// WCET functions e(c,b) for tasks and budget functions Theta(c,b) for VCPUs.
type ResourceTable struct {
	cmin, bmin int
	nc, nb     int
	vals       []float64
}

// NewResourceTable returns a zero-filled table covering c in [cmin, cmax]
// and b in [bmin, bmax]. It panics on an empty range.
func NewResourceTable(cmin, cmax, bmin, bmax int) *ResourceTable {
	if cmax < cmin || bmax < bmin || cmin < 0 || bmin < 0 {
		panic(fmt.Sprintf("model: invalid ResourceTable range c[%d,%d] b[%d,%d]",
			cmin, cmax, bmin, bmax))
	}
	nc, nb := cmax-cmin+1, bmax-bmin+1
	return &ResourceTable{
		cmin: cmin, bmin: bmin, nc: nc, nb: nb,
		vals: make([]float64, nc*nb),
	}
}

// NewResourceTableFor returns a zero-filled table covering the platform's
// full allocation range.
func NewResourceTableFor(p Platform) *ResourceTable {
	return NewResourceTable(p.Cmin, p.C, p.Bmin, p.B)
}

// Bounds returns the inclusive index ranges [cmin, cmax], [bmin, bmax].
func (t *ResourceTable) Bounds() (cmin, cmax, bmin, bmax int) {
	return t.cmin, t.cmin + t.nc - 1, t.bmin, t.bmin + t.nb - 1
}

func (t *ResourceTable) index(c, b int) int {
	ci, bi := c-t.cmin, b-t.bmin
	if ci < 0 || ci >= t.nc || bi < 0 || bi >= t.nb {
		panic(fmt.Sprintf("model: ResourceTable index (c=%d, b=%d) out of range c[%d,%d] b[%d,%d]",
			c, b, t.cmin, t.cmin+t.nc-1, t.bmin, t.bmin+t.nb-1))
	}
	return ci*t.nb + bi
}

// At returns the value at (c, b). It panics if (c, b) is out of range.
func (t *ResourceTable) At(c, b int) float64 { return t.vals[t.index(c, b)] }

// Offset returns where (c, b) sits in the table's storage, so that a loop
// reading one cell of many tables of the same shape (SameShape) computes
// the position once and reads each table with AtOffset. It panics if
// (c, b) is out of range, as At does.
func (t *ResourceTable) Offset(c, b int) int { return t.index(c, b) }

// AtOffset returns the entry at an offset that Offset returned for this
// table or one of the same shape: At at that offset's (c, b).
func (t *ResourceTable) AtOffset(i int) float64 { return t.vals[i] }

// SameShape reports whether t and o cover the same (c, b) ranges, so that
// an Offset of one addresses the same cell of the other.
func (t *ResourceTable) SameShape(o *ResourceTable) bool {
	return t.cmin == o.cmin && t.bmin == o.bmin && t.nc == o.nc && t.nb == o.nb
}

// Set stores v at (c, b). It panics if (c, b) is out of range.
func (t *ResourceTable) Set(c, b int, v float64) { t.vals[t.index(c, b)] = v }

// Reference returns the value under the full allocation (cmax, bmax), i.e.
// e* for a WCET table or Theta* for a budget table.
func (t *ResourceTable) Reference() float64 {
	return t.At(t.cmin+t.nc-1, t.bmin+t.nb-1)
}

// Fill sets every entry to f(c, b).
func (t *ResourceTable) Fill(f func(c, b int) float64) {
	for ci := 0; ci < t.nc; ci++ {
		for bi := 0; bi < t.nb; bi++ {
			t.vals[ci*t.nb+bi] = f(t.cmin+ci, t.bmin+bi)
		}
	}
}

// Clone returns a deep copy of the table.
func (t *ResourceTable) Clone() *ResourceTable {
	out := &ResourceTable{cmin: t.cmin, bmin: t.bmin, nc: t.nc, nb: t.nb,
		vals: make([]float64, len(t.vals))}
	copy(out.vals, t.vals)
	return out
}

// Scale multiplies every entry by f in place and returns the table.
func (t *ResourceTable) Scale(f float64) *ResourceTable {
	for i := range t.vals {
		t.vals[i] *= f
	}
	return t
}

// AddTable adds other into t entry-wise. Both tables must have identical
// bounds; AddTable panics otherwise. Allocation code sums scaled tables
// with AddScaled; AddTable after Clone().Scale(f) is its reference.
func (t *ResourceTable) AddTable(other *ResourceTable) {
	if !t.SameShape(other) {
		panic("model: AddTable with mismatched bounds")
	}
	for i := range t.vals {
		t.vals[i] += other.vals[i]
	}
}

// AddScaled adds other scaled by f into t entry-wise, with the same two
// roundings as t.AddTable(other.Clone().Scale(f)) but no temporary table.
// Both tables must have identical bounds; AddScaled panics otherwise.
func (t *ResourceTable) AddScaled(other *ResourceTable, f float64) {
	if !t.SameShape(other) {
		panic("model: AddScaled with mismatched bounds")
	}
	for i := range t.vals {
		// The explicit conversion rounds the product before the add: the
		// Go spec lets a compiler fuse x*y + z into one FMA otherwise.
		t.vals[i] += float64(other.vals[i] * f)
	}
}

// AppendSlowdown appends the table normalized by its reference value to
// dst in row-major (c, then b) order — the slowdown vector s(c,b) used for
// clustering — and returns the extended slice. Callers clustering many
// tables append them all into one flat buffer. It panics if the reference
// value is not positive.
func (t *ResourceTable) AppendSlowdown(dst []float64) []float64 {
	ref := t.Reference()
	if ref <= 0 {
		panic("model: AppendSlowdown of table with non-positive reference value")
	}
	for _, v := range t.vals {
		dst = append(dst, v/ref)
	}
	return dst
}

// CheckMonotone reports an error unless the table is non-increasing in both
// c and b: more cache or more bandwidth never increases WCET. The workload
// generator and the synthetic benchmark profiles guarantee this property;
// analysis code relies on it when growing a core's allocation.
func (t *ResourceTable) CheckMonotone() error {
	for ci := 0; ci < t.nc; ci++ {
		for bi := 0; bi < t.nb; bi++ {
			v := t.vals[ci*t.nb+bi]
			if v < 0 {
				return fmt.Errorf("model: negative table entry at c=%d b=%d", t.cmin+ci, t.bmin+bi)
			}
			if ci+1 < t.nc && t.vals[(ci+1)*t.nb+bi] > v+1e-9 {
				return fmt.Errorf("model: table increases in c at c=%d b=%d", t.cmin+ci, t.bmin+bi)
			}
			if bi+1 < t.nb && t.vals[ci*t.nb+bi+1] > v+1e-9 {
				return fmt.Errorf("model: table increases in b at c=%d b=%d", t.cmin+ci, t.bmin+bi)
			}
		}
	}
	return nil
}

// Task is an implicit-deadline periodic task with a cache/BW-dependent WCET.
// All time quantities are in milliseconds.
type Task struct {
	// ID is unique within the system.
	ID string `json:"id"`
	// VM names the virtual machine this task belongs to.
	VM string `json:"vm"`
	// Period is the task period (= deadline) in ms.
	Period float64 `json:"period_ms"`
	// WCET is the WCET function e(c,b) in ms.
	WCET *ResourceTable `json:"wcet_ms"`
	// Benchmark records which benchmark profile generated the WCET table
	// (provenance only; empty for hand-built tasks).
	Benchmark string `json:"benchmark,omitempty"`
}

// RefWCET returns the reference WCET e* = e(C,B).
func (t *Task) RefWCET() float64 { return t.WCET.Reference() }

// RefUtil returns the reference utilization e*/p.
func (t *Task) RefUtil() float64 { return t.WCET.Reference() / t.Period }

// Util returns the utilization e(c,b)/p under the given allocation.
func (t *Task) Util(c, b int) float64 { return t.WCET.At(c, b) / t.Period }

// Validate reports an error if the task is malformed.
func (t *Task) Validate() error {
	if t.Period <= 0 {
		return fmt.Errorf("task %s: period %v, need > 0", t.ID, t.Period)
	}
	if t.WCET == nil {
		return fmt.Errorf("task %s: nil WCET table", t.ID)
	}
	if t.WCET.Reference() <= 0 {
		return fmt.Errorf("task %s: non-positive reference WCET", t.ID)
	}
	if err := t.WCET.CheckMonotone(); err != nil {
		return fmt.Errorf("task %s: %w", t.ID, err)
	}
	return nil
}

// VM is a virtual machine hosting a set of tasks.
type VM struct {
	// ID is unique within the system.
	ID string `json:"id"`
	// Tasks are the VM's periodic tasks.
	Tasks []*Task `json:"tasks"`
	// MaxVCPUs bounds how many VCPUs this VM may have; 0 means unlimited
	// (the paper notes Xen supports up to 512 VCPUs per VM). The flattening
	// strategy requires MaxVCPUs = 0 or MaxVCPUs >= len(Tasks).
	MaxVCPUs int `json:"max_vcpus,omitempty"`
}

// RefUtil returns the total reference utilization of the VM's tasks.
func (vm *VM) RefUtil() float64 {
	var u float64
	for _, t := range vm.Tasks {
		u += t.RefUtil()
	}
	return u
}

// System is a set of VMs to be deployed on a platform.
type System struct {
	Platform Platform `json:"platform"`
	VMs      []*VM    `json:"vms"`
}

// Tasks returns all tasks across all VMs in declaration order.
func (s *System) Tasks() []*Task {
	var out []*Task
	for _, vm := range s.VMs {
		out = append(out, vm.Tasks...)
	}
	return out
}

// RefUtil returns the total reference utilization across all VMs.
func (s *System) RefUtil() float64 {
	var u float64
	for _, vm := range s.VMs {
		u += vm.RefUtil()
	}
	return u
}

// ErrInvalidSystem matches, under errors.Is, every error System.Validate
// returns. The error's message is the validation failure's own.
var ErrInvalidSystem = errors.New("model: invalid system")

type invalidSystemError struct{ error }

func (e invalidSystemError) Is(target error) bool { return target == ErrInvalidSystem }
func (e invalidSystemError) Unwrap() error        { return e.error }

// Validate checks the platform, every task, and ID uniqueness.
func (s *System) Validate() error {
	if err := s.validate(); err != nil {
		return invalidSystemError{err}
	}
	return nil
}

func (s *System) validate() error {
	if err := s.Platform.Validate(); err != nil {
		return err
	}
	seenVM := map[string]bool{}
	seenTask := map[string]bool{}
	for i, vm := range s.VMs {
		if vm == nil {
			return fmt.Errorf("system: VM %d is null", i)
		}
		if seenVM[vm.ID] {
			return fmt.Errorf("system: duplicate VM ID %q", vm.ID)
		}
		seenVM[vm.ID] = true
		for j, t := range vm.Tasks {
			if t == nil {
				return fmt.Errorf("system: task %d of VM %q is null", j, vm.ID)
			}
			if seenTask[t.ID] {
				return fmt.Errorf("system: duplicate task ID %q", t.ID)
			}
			seenTask[t.ID] = true
			if err := t.Validate(); err != nil {
				return err
			}
			cmin, cmax, bmin, bmax := t.WCET.Bounds()
			if cmin != s.Platform.Cmin || cmax != s.Platform.C ||
				bmin != s.Platform.Bmin || bmax != s.Platform.B {
				return fmt.Errorf("task %s: WCET table bounds c[%d,%d] b[%d,%d] do not match platform c[%d,%d] b[%d,%d]",
					t.ID, cmin, cmax, bmin, bmax,
					s.Platform.Cmin, s.Platform.C, s.Platform.Bmin, s.Platform.B)
			}
		}
	}
	return nil
}

// VCPU is a virtual processor: a periodic server with a cache/BW-dependent
// execution budget, scheduled by the hypervisor as an implicit-deadline
// periodic task (Pi_j, Theta_j(c,b)).
type VCPU struct {
	// ID is unique within an allocation.
	ID string `json:"id"`
	// VM names the owning virtual machine.
	VM string `json:"vm"`
	// Index is the VCPU index used by the deterministic EDF tie-breaking
	// rule for well-regulated execution (smaller index = higher priority).
	Index int `json:"index"`
	// Period Pi_j in ms.
	Period float64 `json:"period_ms"`
	// Budget is the execution-budget function Theta_j(c,b) in ms.
	Budget *ResourceTable `json:"budget_ms"`
	// Tasks are the tasks mapped onto this VCPU.
	Tasks []*Task `json:"tasks,omitempty"`
	// WellRegulated records that the VCPU must execute under the
	// well-regulated discipline (Theorem 2): periodic server, harmonic
	// period, deterministic tie-breaking.
	WellRegulated bool `json:"well_regulated,omitempty"`
	// SyncedRelease records that the VCPU's release is synchronized with
	// its (single) task's release (Theorem 1, flattening).
	SyncedRelease bool `json:"synced_release,omitempty"`
}

// RefBandwidth returns Theta*(C,B)/Pi, the VCPU's reference CPU bandwidth.
func (v *VCPU) RefBandwidth() float64 { return v.Budget.Reference() / v.Period }

// Bandwidth returns Theta(c,b)/Pi under the given allocation.
func (v *VCPU) Bandwidth(c, b int) float64 { return v.Budget.At(c, b) / v.Period }

// Validate reports an error if the VCPU is malformed.
func (v *VCPU) Validate() error {
	if v.Period <= 0 {
		return fmt.Errorf("vcpu %s: period %v, need > 0", v.ID, v.Period)
	}
	if v.Budget == nil {
		return fmt.Errorf("vcpu %s: nil budget table", v.ID)
	}
	return nil
}

// CoreAlloc is the allocation for one physical core: the VCPUs assigned to
// it and the numbers of cache and BW partitions it owns.
type CoreAlloc struct {
	// Core is the physical core index in [0, M).
	Core int `json:"core"`
	// Cache is the number of cache partitions allocated to the core.
	Cache int `json:"cache"`
	// BW is the number of memory-bandwidth partitions allocated.
	BW int `json:"bw"`
	// VCPUs are the virtual processors scheduled on this core under EDF.
	VCPUs []*VCPU `json:"vcpus"`
}

// Utilization returns the total VCPU bandwidth on the core under its
// current (Cache, BW) allocation. The core is EDF-schedulable iff this is
// at most 1 (exact test for implicit-deadline periodic servers).
func (ca *CoreAlloc) Utilization() float64 {
	var u float64
	for _, v := range ca.VCPUs {
		u += v.Bandwidth(ca.Cache, ca.BW)
	}
	return u
}

// Allocation is the complete output of the vC2M resource allocator: the
// task-to-VCPU mapping (embedded in the VCPUs), the VCPU-to-core mapping,
// and the per-core cache/BW partition counts.
type Allocation struct {
	// Platform is the configuration the allocation was computed for.
	Platform Platform `json:"platform"`
	// Cores holds one entry per core actually used (len <= Platform.M).
	Cores []*CoreAlloc `json:"cores"`
	// Schedulable reports whether the allocator proved all deadlines met.
	Schedulable bool `json:"schedulable"`
	// Solution names the algorithm that produced this allocation.
	Solution string `json:"solution,omitempty"`
}

// ErrNotSchedulable is returned by allocators when no feasible allocation
// was found within the platform's resources.
var ErrNotSchedulable = errors.New("model: system not schedulable on platform")

// Report renders a human-readable account of the allocation: per core, the
// partition counts, the utilization under those partitions (the quantity
// the schedulability test bounds by 1), and each VCPU's parameters with
// its tasks. It is the explanation of *why* the allocation is schedulable.
func (a *Allocation) Report() string {
	var b strings.Builder
	label := a.Solution
	if label == "" {
		label = "(unnamed solution)"
	}
	fmt.Fprintf(&b, "allocation by %s on platform %s (%d cores, %d cache + %d BW partitions)\n",
		label, a.Platform.Name, a.Platform.M, a.Platform.C, a.Platform.B)
	fmt.Fprintf(&b, "cores used: %d; partitions used: %d cache, %d BW\n",
		len(a.Cores), a.UsedCache(), a.UsedBW())
	for _, core := range a.Cores {
		fmt.Fprintf(&b, "core %d: cache %d, BW %d, utilization %.3f <= 1\n",
			core.Core, core.Cache, core.BW, core.Utilization())
		for _, v := range core.VCPUs {
			kind := "periodic server"
			switch {
			case v.SyncedRelease:
				kind = "flattened (release-synchronized)"
			case v.WellRegulated:
				kind = "well-regulated"
			}
			fmt.Fprintf(&b, "  VCPU %-24s period %8.2f ms, budget %8.2f ms, bandwidth %.3f [%s]\n",
				v.ID, v.Period, v.Budget.At(core.Cache, core.BW), v.Bandwidth(core.Cache, core.BW), kind)
			for _, t := range v.Tasks {
				fmt.Fprintf(&b, "    task %-20s period %8.2f ms, WCET %8.2f ms (utilization %.3f)\n",
					t.ID, t.Period, t.WCET.At(core.Cache, core.BW), t.Util(core.Cache, core.BW))
			}
		}
	}
	return b.String()
}

// VCPUs returns all VCPUs across all cores.
func (a *Allocation) VCPUs() []*VCPU {
	var out []*VCPU
	for _, c := range a.Cores {
		out = append(out, c.VCPUs...)
	}
	return out
}

// UsedCache returns the total number of cache partitions allocated.
func (a *Allocation) UsedCache() int {
	var n int
	for _, c := range a.Cores {
		n += c.Cache
	}
	return n
}

// UsedBW returns the total number of BW partitions allocated.
func (a *Allocation) UsedBW() int {
	var n int
	for _, c := range a.Cores {
		n += c.BW
	}
	return n
}

// Validate checks the structural invariants of a schedulable allocation:
//   - at most M cores, each with a partition count in [Cmin, C] x [Bmin, B];
//   - partition totals within the platform's C and B (disjointness);
//   - every core utilization at most 1 under its allocation;
//   - every VCPU appears exactly once;
//   - every task appears on exactly one VCPU;
//   - task periods on a well-regulated VCPU are harmonic and at least the
//     VCPU period.
//
// The expected task set is supplied by the caller (the allocator's input);
// pass nil to skip the task-coverage check.
func (a *Allocation) Validate(tasks []*Task) error {
	if err := a.ValidateStructure(tasks); err != nil {
		return err
	}
	for _, core := range a.Cores {
		if u := core.Utilization(); u > 1+1e-9 {
			return fmt.Errorf("allocation: core %d utilization %.6f > 1", core.Core, u)
		}
	}
	return nil
}

// ValidateStructure checks every invariant of Validate except per-core
// schedulability (utilization at most 1). The hypervisor simulator uses it
// so that deliberately overloaded allocations can be simulated and their
// deadline misses observed.
func (a *Allocation) ValidateStructure(tasks []*Task) error {
	p := a.Platform
	if len(a.Cores) > p.M {
		return fmt.Errorf("allocation: uses %d cores, platform has %d", len(a.Cores), p.M)
	}
	if a.UsedCache() > p.C {
		return fmt.Errorf("allocation: uses %d cache partitions, platform has %d", a.UsedCache(), p.C)
	}
	if a.UsedBW() > p.B {
		return fmt.Errorf("allocation: uses %d BW partitions, platform has %d", a.UsedBW(), p.B)
	}
	seenCore := map[int]bool{}
	seenVCPU := map[string]bool{}
	taskOn := map[string]int{}
	for _, core := range a.Cores {
		if core.Core < 0 || core.Core >= p.M {
			return fmt.Errorf("allocation: core index %d out of range [0,%d)", core.Core, p.M)
		}
		if seenCore[core.Core] {
			return fmt.Errorf("allocation: core %d allocated twice", core.Core)
		}
		seenCore[core.Core] = true
		if core.Cache < p.Cmin || core.Cache > p.C {
			return fmt.Errorf("allocation: core %d cache = %d outside [%d,%d]", core.Core, core.Cache, p.Cmin, p.C)
		}
		if core.BW < p.Bmin || core.BW > p.B {
			return fmt.Errorf("allocation: core %d BW = %d outside [%d,%d]", core.Core, core.BW, p.Bmin, p.B)
		}
		for _, v := range core.VCPUs {
			if err := v.Validate(); err != nil {
				return err
			}
			if seenVCPU[v.ID] {
				return fmt.Errorf("allocation: VCPU %s on multiple cores", v.ID)
			}
			seenVCPU[v.ID] = true
			for _, t := range v.Tasks {
				taskOn[t.ID]++
				if t.Period < v.Period-1e-9 {
					return fmt.Errorf("allocation: task %s period %v below VCPU %s period %v",
						t.ID, t.Period, v.ID, v.Period)
				}
			}
		}
	}
	if tasks != nil {
		for _, t := range tasks {
			if n := taskOn[t.ID]; n != 1 {
				return fmt.Errorf("allocation: task %s mapped %d times, want 1", t.ID, n)
			}
		}
		if len(taskOn) != len(tasks) {
			return fmt.Errorf("allocation: %d mapped tasks, input has %d", len(taskOn), len(tasks))
		}
	}
	return nil
}
