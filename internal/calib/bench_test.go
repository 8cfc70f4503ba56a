package calib

import (
	"testing"

	"mdsprint/internal/dist"
	"mdsprint/internal/mech"
	"mdsprint/internal/profiler"
	"mdsprint/internal/workload"
)

// TestServiceDistCached pins the per-dataset memoization calibration
// relies on: repeated simulator evaluations against one dataset must
// share a single Empirical instead of re-copying the sample vector per
// evaluation, and distinct datasets must not share one.
func TestServiceDistCached(t *testing.T) {
	conds := []profiler.Condition{
		{Utilization: 0.6, ArrivalKind: dist.KindExponential, Timeout: 60, RefillTime: 200, BudgetPct: 0.4},
	}
	ds := jacobiDataset(t, conds)
	o := Options{NumQueries: 100, Seed: 7}
	a := simParams(ds, ds.Observations[0], ds.MarginalRate, o).Service
	if b := simParams(ds, ds.Observations[0], 2*ds.MarginalRate, o).Service; a != b {
		t.Fatal("simParams rebuilt the Empirical for the same dataset")
	}
	other := jacobiDataset(t, conds)
	if a == simParams(other, other.Observations[0], other.MarginalRate, o).Service {
		t.Fatal("distinct datasets share a cached distribution")
	}
}

// BenchmarkSimulateRT measures one calibration-objective evaluation: a
// replicated queue simulation of the profiled Jacobi dataset at a fresh
// sprint rate each iteration (fresh rates defeat the sweep memoization
// cache, so the benchmark times honest simulations). This is the inner
// loop of the bisection search; BENCH_sim.json records the baseline.
func BenchmarkSimulateRT(b *testing.B) {
	conds := []profiler.Condition{
		{Utilization: 0.6, ArrivalKind: dist.KindExponential, Timeout: 60, RefillTime: 200, BudgetPct: 0.4},
	}
	p := &profiler.Profiler{
		Mix:           workload.SingleClass(workload.MustByName("Jacobi")),
		Mechanism:     mech.DVFS{},
		QueriesPerRun: 1200,
		Seed:          5,
	}
	ds := p.Profile(conds)
	obs := ds.Observations[0]
	o := Options{NumQueries: 1500, Replications: 2, Seed: 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rate := ds.MarginalRate * (1 + 1e-7*float64(i))
		if _, err := SimulateRTErr(ds, obs, rate, o); err != nil {
			b.Fatal(err)
		}
	}
}
