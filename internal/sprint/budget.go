package sprint

import (
	"fmt"
	"math"
)

// Accountant tracks a sprinting budget over virtual time. The budget is a
// token bucket measured in sprint-seconds: each concurrently sprinting
// execution drains one sprint-second per second, and the bucket refills at
// RefillRate sprint-seconds per second, clamped to Capacity.
//
// The accountant is piecewise-linear between calls, so simulators can ask
// exactly when the budget will hit empty (TimeToEmpty) and schedule a
// budget-exhaustion event instead of polling.
//
// Accountant is not safe for concurrent use; each simulated server owns one.
type Accountant struct {
	capacity   float64
	refillRate float64
	// pauseWhileSprinting freezes accrual while any sprint is active,
	// matching the paper's "after refill time elapses without sprinting,
	// the budget reaches full capacity" semantics. When false the bucket
	// accrues continuously (AWS CPU-credit semantics).
	pauseWhileSprinting bool
	// soft permits overdraft: the level may go negative and sprints are
	// never force-stopped by the accountant.
	soft bool
	// windowRefill, when positive, replaces rate accrual entirely: the
	// level snaps to capacity once windowRefill seconds elapse with no
	// sprint active (the paper's refill clause).
	windowRefill float64

	level     float64
	sprinting int     // number of concurrently sprinting executions
	last      float64 // virtual time of the last state update
	idleSince float64 // when sprinting last dropped to zero
}

// ResetFor reinitializes a in place, full at virtual time zero, to
// implement p's budget clause: capacity p.BudgetSeconds, refill rate
// p.RefillRate(), refill semantics p.Refill (a RefillWindow policy with
// no positive refill time keeps rate accrual), and an overdraft when
// p.Soft. It is the one mapping from a policy to its accountant, and
// it does not allocate, so reusable simulator servers reset theirs in
// place.
func (a *Accountant) ResetFor(p Policy) {
	capacity, refillRate := p.BudgetSeconds, p.RefillRate()
	if capacity < 0 || refillRate < 0 || math.IsNaN(capacity) || math.IsNaN(refillRate) {
		panic(fmt.Sprintf("sprint: invalid accountant capacity=%v refill=%v", capacity, refillRate))
	}
	*a = Accountant{capacity: capacity, refillRate: refillRate, level: capacity, soft: p.Soft}
	switch p.Refill {
	case RefillPaused:
		a.pauseWhileSprinting = true
	case RefillWindow:
		if p.RefillTime > 0 {
			a.windowRefill = p.RefillTime
		}
	}
}

// netRate returns the current rate of change of the budget level.
func (a *Accountant) netRate() float64 {
	refill := a.refillRate
	if a.windowRefill > 0 {
		refill = 0 // window semantics snap instead of accruing
	}
	if a.pauseWhileSprinting && a.sprinting > 0 {
		refill = 0
	}
	return refill - float64(a.sprinting)
}

// advance integrates the level forward to time now.
func (a *Accountant) advance(now float64) {
	if now < a.last {
		panic(fmt.Sprintf("sprint: accountant time moved backwards %v -> %v", a.last, now))
	}
	dt := now - a.last
	a.last = now
	if a.windowRefill > 0 && a.sprinting == 0 && a.level < a.capacity &&
		now-a.idleSince >= a.windowRefill {
		a.level = a.capacity
	}
	//lint:ignore floateq exact fast-path: repeated events at the identical virtual time must not integrate
	if dt == 0 {
		return
	}
	a.level += a.netRate() * dt
	if a.level > a.capacity {
		a.level = a.capacity
	}
	if !a.soft && a.level < 0 {
		// Hard budgets cannot go negative; the caller is expected to
		// have stopped sprints at TimeToEmpty. Tiny numerical
		// undershoot from floating-point event times is clamped.
		a.level = 0
	}
}

// Level returns the budget level at time now.
func (a *Accountant) Level(now float64) float64 {
	a.advance(now)
	return a.level
}

// Sprinting returns the number of concurrently sprinting executions.
func (a *Accountant) Sprinting() int { return a.sprinting }

// MinEngageSeconds caps the minimum budget level required to engage a new
// sprint. Without a floor, a trickle of refill makes the bucket "not
// empty" for an instant and sprints thrash on and off for nanoseconds at
// a time — behaviour no real queue manager exhibits. For small buckets
// (e.g. millisecond-scale wall-clock harnesses) the effective threshold
// scales down to 2% of capacity.
const MinEngageSeconds = 1.0

// engageThreshold returns the budget level required to start a sprint.
func (a *Accountant) engageThreshold() float64 {
	return math.Min(MinEngageSeconds, 0.02*a.capacity)
}

// CanSprint reports whether a new sprint may begin at time now: hard
// budgets need at least the engage threshold; soft budgets always permit
// it (they overdraw instead).
func (a *Accountant) CanSprint(now float64) bool {
	a.advance(now)
	return a.soft || a.level >= a.engageThreshold()
}

// StartSprint registers one more sprinting execution beginning at now.
func (a *Accountant) StartSprint(now float64) {
	a.advance(now)
	a.sprinting++
}

// StopSprint registers the end of one sprinting execution at time now. It
// panics if no sprint is active.
func (a *Accountant) StopSprint(now float64) {
	a.advance(now)
	if a.sprinting == 0 {
		panic("sprint: StopSprint with no active sprint")
	}
	a.sprinting--
	if a.sprinting == 0 {
		a.idleSince = now // a fresh sprint-free window starts here
	}
}

// TimeToEmpty returns how long from now until the level reaches zero at the
// current net rate, or +Inf if the level is not decreasing (or the budget
// is soft). Simulators schedule the forced end of sprints at this horizon.
func (a *Accountant) TimeToEmpty(now float64) float64 {
	a.advance(now)
	if a.soft {
		return math.Inf(1)
	}
	rate := a.netRate()
	if rate >= 0 {
		return math.Inf(1)
	}
	if a.level <= 0 {
		return 0
	}
	return a.level / -rate
}
