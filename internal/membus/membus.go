// Package membus models the memory bus and vC2M's memory-bandwidth
// regulator (Section 3.2, Fig. 1).
//
// The regulator reproduces the paper's mechanism event-for-event, with the
// hardware pieces replaced by explicit state:
//
//   - Each core has a performance counter (PC) counting its memory requests
//     (last-level cache misses). The PC is preset so that it "overflows"
//     when the core exhausts its per-period bandwidth budget.
//   - On overflow, the (simulated) LAPIC delivers an interrupt to the BW
//     enforcer handler on that core (steps 1-2 in Fig. 1), which asks the
//     hypervisor scheduler to de-schedule the core's current VCPU and marks
//     the core throttled in a shared bitmask (step 3).
//   - A periodic timer drives the BW refiller, which replenishes every
//     core's budget, clears the throttle bitmask, and invokes the
//     scheduler on previously throttled cores (step 4).
//
// Unlike MemGuard, throttled cores stay idle rather than busy-waiting —
// the hypervisor simply schedules nothing on them — matching vC2M's
// energy-efficiency argument.
//
// The regulator is a pure state machine; package hypersim wires its
// Replenish to a periodic simulation event and its handlers to the
// scheduler.
package membus

import (
	"fmt"

	"vc2m/internal/timeunit"
)

// Config parameterizes the regulator.
type Config struct {
	// Period is the regulation period (the paper uses a small configurable
	// interval, e.g. 1 ms).
	Period timeunit.Ticks
	// Budgets is the per-core bandwidth budget in memory requests per
	// regulation period. A zero budget disables regulation for that core
	// (the core is never throttled).
	Budgets []int64
}

// Validate reports an error for inconsistent configuration.
func (c Config) Validate() error {
	if c.Period <= 0 {
		return fmt.Errorf("membus: regulation period %v, need > 0", c.Period)
	}
	if len(c.Budgets) == 0 {
		return fmt.Errorf("membus: no cores configured")
	}
	for i, b := range c.Budgets {
		if b < 0 {
			return fmt.Errorf("membus: core %d budget %d, need >= 0", i, b)
		}
	}
	return nil
}

// Stats counts per-core regulator activity.
type Stats struct {
	// Requests is the total number of memory requests issued.
	Requests uint64
	// Throttles counts budget-overflow events (PC overflow interrupts).
	Throttles uint64
	// DeniedRequests counts requests attempted while throttled (these
	// indicate a scheduler bug: a throttled core must not execute).
	DeniedRequests uint64
}

// Regulator is the per-core bandwidth regulation state machine.
type Regulator struct {
	cfg       Config
	remaining []int64
	throttled uint64 // bitmask of throttled cores, as in Fig. 1
	stats     []Stats

	// OnThrottle, if non-nil, is the BW enforcer handler invoked when a
	// core exhausts its budget (after the core is marked throttled). The
	// hypervisor uses it to de-schedule the core's current VCPU.
	OnThrottle func(core int)
	// OnReplenish, if non-nil, is invoked for each core by Replenish after
	// budgets are reset (after the core is un-throttled). The hypervisor
	// uses it to schedule a VCPU back onto previously throttled cores.
	OnReplenish func(core int, wasThrottled bool)
}

// New creates a regulator with full budgets.
func New(cfg Config) (*Regulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Regulator{
		cfg:       cfg,
		remaining: make([]int64, len(cfg.Budgets)),
		stats:     make([]Stats, len(cfg.Budgets)),
	}
	copy(r.remaining, cfg.Budgets)
	return r, nil
}

// Cores returns the number of regulated cores.
func (r *Regulator) Cores() int { return len(r.remaining) }

// Period returns the regulation period.
func (r *Regulator) Period() timeunit.Ticks { return r.cfg.Period }

// Throttled reports whether the core is currently throttled.
func (r *Regulator) Throttled(core int) bool {
	return r.throttled&(1<<uint(core)) != 0
}

// Remaining returns the core's remaining budget in this period.
func (r *Regulator) Remaining(core int) int64 { return r.remaining[core] }

// Request records one memory request from the core and returns whether the
// core may proceed. When the request exhausts the budget, the core is
// marked throttled and the BW enforcer handler runs — the PC-overflow-interrupt path of Fig. 1. Requests from an
// already-throttled core are denied and counted separately (a correctly
// integrated scheduler never issues them).
func (r *Regulator) Request(core int) bool {
	st := &r.stats[core]
	if r.Throttled(core) {
		st.DeniedRequests++
		return false
	}
	st.Requests++
	if r.cfg.Budgets[core] == 0 {
		return true // regulation disabled for this core
	}
	r.remaining[core]--
	if r.remaining[core] <= 0 {
		r.throttle(core)
	}
	return true
}

// RequestN records n memory requests from the core at once, the bulk form
// of Request used by the event-driven hypervisor simulator (which charges
// a whole execution slice's requests in one call). It returns the number of
// requests granted; if the budget is exhausted mid-batch the core throttles
// exactly once and the remainder is denied.
func (r *Regulator) RequestN(core int, n int64) int64 {
	if n <= 0 {
		return 0
	}
	st := &r.stats[core]
	if r.Throttled(core) {
		st.DeniedRequests += uint64(n)
		return 0
	}
	if r.cfg.Budgets[core] == 0 {
		st.Requests += uint64(n)
		return n
	}
	granted := n
	if granted > r.remaining[core] {
		granted = r.remaining[core]
	}
	st.Requests += uint64(granted)
	r.remaining[core] -= granted
	if r.remaining[core] <= 0 {
		r.throttle(core)
		st.DeniedRequests += uint64(n - granted)
	}
	return granted
}

// throttle is the BW enforcer path.
func (r *Regulator) throttle(core int) {
	r.throttled |= 1 << uint(core)
	r.stats[core].Throttles++
	if r.OnThrottle != nil {
		r.OnThrottle(core)
	}
}

// Replenish is the BW refiller: it resets every core's budget,
// un-throttles all cores, and invokes OnReplenish per core. The hypervisor calls it at each regulation-period
// boundary.
func (r *Regulator) Replenish() {
	wasThrottled := r.throttled
	r.throttled = 0
	for core := range r.remaining {
		r.remaining[core] = r.cfg.Budgets[core]
		if r.OnReplenish != nil {
			r.OnReplenish(core, wasThrottled&(1<<uint(core)) != 0)
		}
	}
}

// Stats returns the core's counters.
func (r *Regulator) Stats(core int) Stats { return r.stats[core] }

// Bus models shared memory-bus contention for the interference workbench:
// with N cores actively issuing requests, each request's service time
// stretches by a queueing factor. It is intentionally simple — a linear
// M/D/1-flavored stretch — because the workbench only needs the
// qualitative effect (co-runners inflate memory latency; regulation bounds
// it).
type Bus struct {
	// BaseLatency is the uncontended per-request service time.
	BaseLatency timeunit.Ticks
	// ContentionFactor scales the extra latency per concurrent competitor:
	// latency(n) = BaseLatency * (1 + ContentionFactor*(n-1)).
	ContentionFactor float64
}

// Latency returns the per-request latency with n cores actively issuing
// requests (n >= 1).
func (b Bus) Latency(n int) timeunit.Ticks {
	if n < 1 {
		n = 1
	}
	// The explicit conversion rounds the product, so that no compiler
	// fuses it into the addition.
	stretch := 1 + float64(b.ContentionFactor*float64(n-1))
	return b.BaseLatency.Scale(stretch)
}
