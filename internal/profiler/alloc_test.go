package profiler

import (
	"testing"

	"mdsprint/internal/dist"
	"mdsprint/internal/mech"
	"mdsprint/internal/obs"
	"mdsprint/internal/workload"
)

// TestRunConditionZeroAllocs pins RunCondition's steady state: replaying
// a condition reuses a pooled testbed result, response-time buffer and
// the testbed's memoized curves and distributions, so a repeated
// condition allocates nothing.
func TestRunConditionZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	p := &Profiler{
		Mix:           workload.MixII(),
		Mechanism:     mech.CoreScale{},
		QueriesPerRun: 600,
		Replications:  2,
		Seed:          4,
		Metrics:       obs.NewRegistry(),
	}
	cond := Condition{Utilization: 0.75, ArrivalKind: dist.KindPareto, Timeout: 60, RefillTime: 200, BudgetPct: 0.4}
	var sprinted float64
	allocs := testing.AllocsPerRun(20, func() {
		o, _ := p.RunCondition(cond, 11)
		sprinted = o.SprintedFrac
	})
	if sprinted <= 0 {
		t.Fatalf("condition sprinted no query; it does not exercise the sprint curves")
	}
	if allocs != 0 {
		t.Errorf("RunCondition of a repeated condition: %v allocs per call, want 0", allocs)
	}
}
