package calib

import (
	"context"
	"math"
	"testing"

	"mdsprint/internal/dist"
	"mdsprint/internal/mech"
	"mdsprint/internal/profiler"
	"mdsprint/internal/workload"
)

// fastOpts keeps calibration cheap in tests.
var fastOpts = Options{NumQueries: 1500, Replications: 2, Tolerance: 0.015, Seed: 7}

// jacobiDataset profiles Jacobi/DVFS over a couple of conditions.
func jacobiDataset(t *testing.T, conds []profiler.Condition) *profiler.Dataset {
	t.Helper()
	p := &profiler.Profiler{
		Mix:           workload.SingleClass(workload.MustByName("Jacobi")),
		Mechanism:     mech.DVFS{},
		QueriesPerRun: 1200,
		Seed:          5,
	}
	return p.Profile(conds)
}

func TestEffectiveRateAlignsSimulator(t *testing.T) {
	conds := []profiler.Condition{
		{Utilization: 0.75, ArrivalKind: dist.KindExponential, Timeout: 60, RefillTime: 200, BudgetPct: 0.4},
		{Utilization: 0.5, ArrivalKind: dist.KindExponential, Timeout: 120, RefillTime: 500, BudgetPct: 0.2},
	}
	ds := jacobiDataset(t, conds)
	for _, obs := range ds.Observations {
		rec := EffectiveRate(ds, obs, fastOpts)
		if rec.RelError() > 0.08 {
			t.Errorf("%s: calibration error %.1f%% (mu_e=%v qph, observed %v, sim %v)",
				obs.Cond, rec.RelError()*100, rec.EffectiveRate*3600, rec.ObservedRT, rec.SimRT)
		}
		if rec.EffectiveRate < ds.ServiceRate*0.5 {
			t.Errorf("%s: mu_e %v below the 0.5*mu bracket edge %v", obs.Cond, rec.EffectiveRate, ds.ServiceRate*0.5)
		}
	}
}

func TestEffectiveBelowMarginalWithRuntimeFactors(t *testing.T) {
	// Mid-execution sprints plus toggle overhead mean the effective rate
	// typically falls at or below the marginal rate. Use a long timeout
	// so most sprints start in flight (strong runtime factors).
	conds := []profiler.Condition{
		{Utilization: 0.5, ArrivalKind: dist.KindExponential, Timeout: 50, RefillTime: 200, BudgetPct: 0.6},
	}
	ds := jacobiDataset(t, conds)
	rec := EffectiveRate(ds, ds.Observations[0], fastOpts)
	if rec.EffectiveRate > ds.MarginalRate*1.15 {
		t.Fatalf("mu_e %v qph far above mu_m %v qph", rec.EffectiveRate*3600, ds.MarginalRate*3600)
	}
}

func TestConditionMarginalClipsCommandedSpeedup(t *testing.T) {
	ds := &profiler.Dataset{ServiceRate: 0.01, MarginalRate: 0.05}
	full := ds.ConditionMarginal(profiler.Condition{})
	if full != 0.05 {
		t.Fatalf("uncommanded marginal %v, want 0.05", full)
	}
	clipped := ds.ConditionMarginal(profiler.Condition{Speedup: 3})
	if clipped != 0.03 {
		t.Fatalf("commanded marginal %v, want 0.03", clipped)
	}
	uncapped := ds.ConditionMarginal(profiler.Condition{Speedup: 9})
	if uncapped != 0.05 {
		t.Fatalf("over-commanded marginal %v, want 0.05", uncapped)
	}
}

func TestSteppingModeAgreesWithBisection(t *testing.T) {
	conds := []profiler.Condition{
		{Utilization: 0.75, ArrivalKind: dist.KindExponential, Timeout: 80, RefillTime: 500, BudgetPct: 0.4},
	}
	ds := jacobiDataset(t, conds)
	bis := EffectiveRate(ds, ds.Observations[0], fastOpts)
	stepOpts := fastOpts
	stepOpts.Stepping = true
	stepOpts.StepQPH = 0.5
	stepOpts.MaxIter = 120
	stp := EffectiveRate(ds, ds.Observations[0], stepOpts)
	// Both searches should land on rates that explain the observation
	// comparably well.
	if stp.RelError() > 0.10 {
		t.Fatalf("stepping search error %.1f%%", stp.RelError()*100)
	}
	if math.Abs(stp.EffectiveRate-bis.EffectiveRate)/bis.EffectiveRate > 0.15 {
		t.Fatalf("stepping mu_e %v vs bisection mu_e %v", stp.EffectiveRate, bis.EffectiveRate)
	}
}

func TestCalibrateDatasetParallelDeterministic(t *testing.T) {
	conds := profiler.SmallGrid().Sample(3, 2)
	ds := jacobiDataset(t, conds)
	o1 := fastOpts
	o1.Workers = 1
	o4 := fastOpts
	o4.Workers = 4
	a, err := CalibrateDatasetCtx(context.Background(), ds, ds.Observations, o1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CalibrateDatasetCtx(context.Background(), ds, ds.Observations, o4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(conds) {
		t.Fatalf("got %d records", len(a))
	}
	for i := range a {
		if a[i].EffectiveRate != b[i].EffectiveRate {
			t.Fatalf("record %d differs across worker counts", i)
		}
	}
}

func TestNoSprintConditionsCalibrateNearServiceRate(t *testing.T) {
	// With a zero budget nothing sprints; the simulator with any rate
	// explains the observation, and the search should stay put near
	// mu_m without inventing speedups (RT is rate-insensitive, so the
	// initial mu_m evaluation already meets tolerance).
	conds := []profiler.Condition{
		{Utilization: 0.5, ArrivalKind: dist.KindExponential, Timeout: 60, RefillTime: 200, BudgetPct: 0},
	}
	ds := jacobiDataset(t, conds)
	rec := EffectiveRate(ds, ds.Observations[0], fastOpts)
	if rec.RelError() > 0.08 {
		t.Fatalf("budget-0 calibration error %.1f%%", rec.RelError()*100)
	}
}
