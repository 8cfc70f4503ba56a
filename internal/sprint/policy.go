// Package sprint defines computational-sprinting policies and the budget
// accounting they share. A policy controls (1) the timeout that triggers
// sprinting for a query execution, (2) the processing speed during a sprint
// (sprint rate), and (3) the sprinting budget and its refill behaviour —
// the three knobs identified in Section 1 of the paper.
//
// All times are in seconds and all rates in queries per second. The paper
// quotes throughput in queries per hour (qph); use QPH/ToQPH to convert.
package sprint

import "fmt"

// QPH converts queries-per-hour (the paper's throughput unit) to
// queries-per-second (this repository's internal rate unit).
func QPH(qph float64) float64 { return qph / 3600 }

// ToQPH converts queries-per-second back to queries-per-hour.
func ToQPH(qps float64) float64 { return qps * 3600 }

// Policy is a complete sprinting policy.
type Policy struct {
	// Timeout is the time after a query's arrival at which a sprint is
	// triggered for it, in seconds. Zero sprints every query immediately
	// on dispatch (the big-burst / small-burst baselines). A negative
	// value disables sprinting entirely.
	Timeout float64

	// BudgetSeconds is the budget capacity in sprint-seconds: how long
	// executions may run sprinted before the budget is drained.
	BudgetSeconds float64

	// RefillTime is the time, in seconds, for an empty budget to refill
	// to full capacity when no query is sprinting. The implied refill
	// rate is BudgetSeconds / RefillTime sprint-seconds per second.
	RefillTime float64

	// Speedup is the processing-rate multiplier while sprinting,
	// relative to the sustained rate (e.g. 5 for AWS burstable
	// instances). It must exceed 1 for sprinting to mean anything;
	// exactly 1 makes sprints no-ops.
	Speedup float64

	// Soft marks a soft budget: sprints may overdraw below zero instead
	// of being cut off. Section 2.1 notes the profiler enforces hard
	// budgets; soft budgets are explored as the paper's extension.
	Soft bool

	// Refill selects the budget-refill semantics. The default,
	// RefillContinuous, is AWS CPU-credit accrual. RefillWindow is the
	// paper's clause — "after refill time elapses without sprinting,
	// the budget reaches full capacity" — under which aggressive
	// timeouts can starve their own supply (the budget only snaps back
	// after an uninterrupted sprint-free window). RefillPaused is the
	// intermediate: linear accrual that freezes during sprints.
	Refill RefillMode
}

// RefillMode enumerates budget-refill semantics.
type RefillMode int

const (
	// RefillContinuous accrues BudgetSeconds/RefillTime per second at
	// all times (token bucket, AWS credits).
	RefillContinuous RefillMode = iota
	// RefillPaused accrues at the same rate but only while no sprint
	// is active.
	RefillPaused
	// RefillWindow snaps the budget to full capacity once RefillTime
	// elapses with no sprinting (the paper's Section 2.1 semantics).
	RefillWindow
)

func (m RefillMode) String() string {
	switch m {
	case RefillContinuous:
		return "continuous"
	case RefillPaused:
		return "paused"
	case RefillWindow:
		return "window"
	default:
		return fmt.Sprintf("RefillMode(%d)", int(m))
	}
}

// SprintingDisabled reports whether the policy never sprints.
func (p Policy) SprintingDisabled() bool {
	return p.Timeout < 0 || p.Speedup <= 1 || p.BudgetSeconds <= 0
}

// RefillRate returns the budget accrual rate in sprint-seconds per second.
// A zero RefillTime means the budget never refills.
func (p Policy) RefillRate() float64 {
	if p.RefillTime <= 0 {
		return 0
	}
	return p.BudgetSeconds / p.RefillTime
}

func (p Policy) String() string {
	return fmt.Sprintf("Policy{timeout=%.4gs budget=%.4gs refill=%.4gs speedup=%.3gx soft=%v}",
		p.Timeout, p.BudgetSeconds, p.RefillTime, p.Speedup, p.Soft)
}

// BudgetFromPercent converts the paper's budget parameterisation — a
// percentage of sustained processing capacity over one refill window
// (Section 3's cluster-sampling centroids, Figure 12C's x-axis) — into
// budget capacity in sprint-seconds. AWS T2.small's published 720
// sprint-seconds per hour is BudgetFromPercent(0.20, 3600).
func BudgetFromPercent(pct, refillTime float64) float64 {
	if pct < 0 || refillTime < 0 {
		panic("sprint: BudgetFromPercent requires non-negative arguments")
	}
	return pct * refillTime
}
