package calib

import (
	"context"
	"errors"
	"math"
	"testing"

	"mdsprint/internal/dist"
	"mdsprint/internal/obs"
	"mdsprint/internal/profiler"
)

// TestEffectiveRateDegradesWhenSimulationFails: a search whose
// simulation fails falls back to the prediction-free marginal rate and
// counts the record as degraded.
func TestEffectiveRateDegradesWhenSimulationFails(t *testing.T) {
	conds := []profiler.Condition{
		{Utilization: 0.6, ArrivalKind: dist.KindExponential, Timeout: 60, RefillTime: 300, BudgetPct: 0.3},
	}
	ds := jacobiDataset(t, conds)
	bad := ds.Observations[0]
	bad.ArrivalRate = -1 // rejected by the simulator's validation
	o := fastOpts
	o.Metrics = obs.NewRegistry()
	rec := EffectiveRate(ds, bad, o)
	if !math.IsNaN(rec.SimRT) {
		t.Fatalf("degraded record kept a simulated RT: SimRT = %v", rec.SimRT)
	}
	if rec.EffectiveRate < rec.MarginalRate || rec.EffectiveRate > rec.MarginalRate {
		t.Fatalf("degraded mu_e = %v, want the marginal rate %v", rec.EffectiveRate, rec.MarginalRate)
	}
	if got := o.Metrics.Counter("mdsprint_calib_degraded_total", "").Value(); got != 1 {
		t.Fatalf("degraded counter %v, want 1", got)
	}
}

func TestCalibrateDatasetCtxCancellation(t *testing.T) {
	conds := profiler.SmallGrid().Sample(3, 2)
	ds := jacobiDataset(t, conds)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := fastOpts
	o.Metrics = obs.NewRegistry()
	recs, err := CalibrateDatasetCtx(ctx, ds, ds.Observations, o)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if recs != nil {
		t.Fatalf("canceled calibration returned records: %v", recs)
	}
	// An uncanceled ctx and a nil ctx (which never cancels) calibrate
	// every record identically.
	a, err := CalibrateDatasetCtx(context.Background(), ds, ds.Observations, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CalibrateDatasetCtx(nil, ds, ds.Observations, o) //nolint:staticcheck // nil ctx tolerance is part of the contract
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) != len(ds.Observations) {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].EffectiveRate < b[i].EffectiveRate || a[i].EffectiveRate > b[i].EffectiveRate {
			t.Fatalf("record %d differs between background and nil ctx", i)
		}
	}
}

func TestSimulateRTErrValidation(t *testing.T) {
	conds := []profiler.Condition{
		{Utilization: 0.5, ArrivalKind: dist.KindExponential, Timeout: 60, RefillTime: 300, BudgetPct: 0.3},
	}
	ds := jacobiDataset(t, conds)
	o := fastOpts
	o.Metrics = obs.NewRegistry()
	// A non-positive rate cannot be simulated: the error path must
	// surface instead of panicking.
	if _, err := SimulateRTErr(ds, ds.Observations[0], -1, o); err == nil {
		t.Fatal("expected an error for a negative rate")
	}
	rt, err := SimulateRTErr(ds, ds.Observations[0], ds.ServiceRate*0.9, o)
	if err != nil || rt <= 0 {
		t.Fatalf("healthy simulate: rt=%v err=%v", rt, err)
	}
}
