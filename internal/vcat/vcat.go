// Package vcat models the dynamic cache-management layer vC2M builds on:
// vCAT (Xu et al., RTAS'17), which virtualizes Intel's Cache Allocation
// Technology (CAT) for virtual machines.
//
// The hardware interface is reproduced at the register level. CAT exposes
// a small number of classes of service (CLOS); each CLOS has a capacity
// bitmask (CBM) register restricting fills to a subset of the LLC's ways,
// and each logical core is associated with one CLOS through its
// IA32_PQR_ASSOC register. CBMs must be non-empty and contiguous, like
// real CAT.
//
// On top of the hardware model, the Manager implements vCAT's core idea:
// each VM receives a *virtual* cache domain — a contiguous region of
// physical ways — inside which the guest can program virtual CBMs as if it
// owned a private CAT. The manager translates virtual masks to physical
// masks by shifting them into the domain's region and rejects masks that
// escape it, providing isolation between VMs' cache allocations.
//
// vC2M's hypervisor-level allocator uses this layer to realize its
// per-core partition counts: ApplyAllocation programs one CLOS per core
// with a disjoint contiguous region sized to the core's cache allocation.
package vcat

import (
	"fmt"

	"vc2m/internal/bitmask"
	"vc2m/internal/cache"
	"vc2m/internal/model"
)

// Hardware models a CAT-capable processor's register file.
type Hardware struct {
	ways    int
	numCLOS int
	cbm     []uint64 // IA32_L3_QOS_MASK_n
	assoc   []int    // per-core CLOS id (IA32_PQR_ASSOC)
}

// NewHardware creates a register file for a cache with the given number of
// ways, numCLOS classes of service and nCores cores. All CLOS masks start
// full (the power-on CAT state) and every core is associated with CLOS 0.
func NewHardware(ways, numCLOS, nCores int) (*Hardware, error) {
	if ways <= 0 || ways > 64 {
		return nil, fmt.Errorf("vcat: ways = %d, need 1..64", ways)
	}
	if numCLOS <= 0 {
		return nil, fmt.Errorf("vcat: numCLOS = %d, need > 0", numCLOS)
	}
	if nCores <= 0 {
		return nil, fmt.Errorf("vcat: nCores = %d, need > 0", nCores)
	}
	hw := &Hardware{
		ways:    ways,
		numCLOS: numCLOS,
		cbm:     make([]uint64, numCLOS),
		assoc:   make([]int, nCores),
	}
	full := bitmask.Full(ways)
	for i := range hw.cbm {
		hw.cbm[i] = full
	}
	return hw, nil
}

// Ways returns the LLC way count.
func (hw *Hardware) Ways() int { return hw.ways }

// NumCLOS returns the number of classes of service.
func (hw *Hardware) NumCLOS() int { return hw.numCLOS }

// WriteCBM programs the CLOS's capacity bitmask. Like real CAT, the mask
// must be non-empty, contiguous, and within the way count; violating
// writes fault (return an error) without changing the register.
func (hw *Hardware) WriteCBM(clos int, mask uint64) error {
	if clos < 0 || clos >= hw.numCLOS {
		return fmt.Errorf("vcat: CLOS %d out of range [0,%d)", clos, hw.numCLOS)
	}
	if mask == 0 {
		return fmt.Errorf("vcat: empty CBM for CLOS %d", clos)
	}
	if mask&^bitmask.Full(hw.ways) != 0 {
		return fmt.Errorf("vcat: CBM %#x exceeds %d ways", mask, hw.ways)
	}
	if !bitmask.Contiguous(mask) {
		return fmt.Errorf("vcat: CBM %#x is not contiguous", mask)
	}
	hw.cbm[clos] = mask
	return nil
}

// ReadCBM returns the CLOS's capacity bitmask.
func (hw *Hardware) ReadCBM(clos int) (uint64, error) {
	if clos < 0 || clos >= hw.numCLOS {
		return 0, fmt.Errorf("vcat: CLOS %d out of range [0,%d)", clos, hw.numCLOS)
	}
	return hw.cbm[clos], nil
}

// Associate binds the core to the CLOS (IA32_PQR_ASSOC write).
func (hw *Hardware) Associate(core, clos int) error {
	if core < 0 || core >= len(hw.assoc) {
		return fmt.Errorf("vcat: core %d out of range [0,%d)", core, len(hw.assoc))
	}
	if clos < 0 || clos >= hw.numCLOS {
		return fmt.Errorf("vcat: CLOS %d out of range [0,%d)", clos, hw.numCLOS)
	}
	hw.assoc[core] = clos
	return nil
}

// EffectiveMask returns the capacity bitmask governing the core's fills.
func (hw *Hardware) EffectiveMask(core int) (uint64, error) {
	if core < 0 || core >= len(hw.assoc) {
		return 0, fmt.Errorf("vcat: core %d out of range [0,%d)", core, len(hw.assoc))
	}
	return hw.cbm[hw.assoc[core]], nil
}

// Program pushes the current register state into the cache simulator, the
// analogue of the hardware honoring CAT on every fill.
func (hw *Hardware) Program(c *cache.Cache) error {
	for core := range hw.assoc {
		mask, err := hw.EffectiveMask(core)
		if err != nil {
			return err
		}
		if err := c.SetMask(core, mask); err != nil {
			return err
		}
	}
	return nil
}

// Domain is a VM's virtual cache: a contiguous region of physical ways
// within which the guest programs virtual CBMs.
type Domain struct {
	vm    string
	base  int // first physical way
	count int // number of ways
	mgr   *Manager
}

// VM returns the owning VM's ID.
func (d *Domain) VM() string { return d.vm }

// Ways returns the domain's virtual way count.
func (d *Domain) Ways() int { return d.count }

// PhysicalMask returns the domain's full region as a physical mask.
func (d *Domain) PhysicalMask() uint64 {
	return bitmask.Full(d.count) << uint(d.base)
}

// Translate converts a virtual CBM (over the domain's ways, bit 0 = the
// domain's first way) into the physical CBM, rejecting masks that escape
// the domain — the vCAT isolation guarantee.
func (d *Domain) Translate(virtualMask uint64) (uint64, error) {
	if virtualMask == 0 {
		return 0, fmt.Errorf("vcat: empty virtual CBM in domain %s", d.vm)
	}
	if virtualMask&^bitmask.Full(d.count) != 0 {
		return 0, fmt.Errorf("vcat: virtual CBM %#x escapes domain %s (%d ways)",
			virtualMask, d.vm, d.count)
	}
	if !bitmask.Contiguous(virtualMask) {
		return 0, fmt.Errorf("vcat: virtual CBM %#x is not contiguous", virtualMask)
	}
	return virtualMask << uint(d.base), nil
}

// SetVirtualCBM programs the CLOS with the domain-translated mask.
func (d *Domain) SetVirtualCBM(clos int, virtualMask uint64) error {
	phys, err := d.Translate(virtualMask)
	if err != nil {
		return err
	}
	return d.mgr.hw.WriteCBM(clos, phys)
}

// Manager is the hypervisor-side vCAT component: it owns the physical way
// space and carves per-VM domains out of it.
type Manager struct {
	hw      *Hardware
	domains map[string]*Domain
	nextWay int
}

// NewManager wraps the hardware.
func NewManager(hw *Hardware) *Manager {
	return &Manager{hw: hw, domains: make(map[string]*Domain)}
}

// FreeWays returns the number of unallocated physical ways.
func (m *Manager) FreeWays() int { return m.hw.ways - m.nextWay }

// CreateDomain allocates a contiguous region of ways for the VM.
func (m *Manager) CreateDomain(vmID string, ways int) (*Domain, error) {
	if _, ok := m.domains[vmID]; ok {
		return nil, fmt.Errorf("vcat: domain %s already exists", vmID)
	}
	if ways <= 0 {
		return nil, fmt.Errorf("vcat: domain %s: ways = %d, need > 0", vmID, ways)
	}
	if ways > m.FreeWays() {
		return nil, fmt.Errorf("vcat: domain %s: %d ways requested, %d free", vmID, ways, m.FreeWays())
	}
	d := &Domain{vm: vmID, base: m.nextWay, count: ways, mgr: m}
	m.nextWay += ways
	m.domains[vmID] = d
	return d, nil
}

// Domain returns the VM's domain.
func (m *Manager) Domain(vmID string) (*Domain, bool) {
	d, ok := m.domains[vmID]
	return d, ok
}

// Reset releases all domains and restores full CBMs, the vCAT teardown
// path. (Individual destroy-and-compact, which vCAT supports via mask
// moves, is not needed by vC2M's static allocations.)
func (m *Manager) Reset() {
	m.domains = make(map[string]*Domain)
	m.nextWay = 0
	full := bitmask.Full(m.hw.ways)
	for i := range m.hw.cbm {
		m.hw.cbm[i] = full
	}
}

// ApplyAllocation realizes a vC2M allocation on the hardware: core i's
// CLOS i receives a disjoint contiguous region of exactly its allocated
// cache partitions, and the core is associated with that CLOS. It fails if
// the hardware has fewer CLOSes than cores or fewer ways than the
// allocation's partition total.
func ApplyAllocation(hw *Hardware, a *model.Allocation) error {
	if len(a.Cores) > hw.numCLOS {
		return fmt.Errorf("vcat: %d cores need %d CLOSes, hardware has %d",
			len(a.Cores), len(a.Cores), hw.numCLOS)
	}
	base := 0
	for i, core := range a.Cores {
		if base+core.Cache > hw.ways {
			return fmt.Errorf("vcat: allocation needs %d ways, hardware has %d",
				base+core.Cache, hw.ways)
		}
		mask := bitmask.Full(core.Cache) << uint(base)
		if err := hw.WriteCBM(i, mask); err != nil {
			return err
		}
		if err := hw.Associate(i, i); err != nil {
			return err
		}
		base += core.Cache
	}
	return nil
}
