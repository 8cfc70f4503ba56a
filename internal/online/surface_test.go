package online

import (
	"math"
	"testing"
	"time"

	"mdsprint/internal/core"
	"mdsprint/internal/obs"
	"mdsprint/internal/profiler"
	"mdsprint/internal/sweep"
	"mdsprint/internal/tier"
)

// surfaceQuery is an unsaturated operating point on the default surface.
var surfaceQuery = core.Scenario{Cond: profiler.Condition{Timeout: 20}, ArrivalRate: 0.5}

func newDefaultSurface() *SurfaceModel {
	return NewSurfaceModel("s", DefaultServiceRate, DefaultSprintGain, DefaultSweetTimeout)
}

func surfaceTruth(sc core.Scenario) float64 {
	return SurfaceRT(DefaultServiceRate, DefaultSprintGain, DefaultSweetTimeout, sc.ArrivalRate, sc.Cond.Timeout)
}

func predictRT(t *testing.T, m *SurfaceModel, sc core.Scenario) float64 {
	t.Helper()
	p, err := m.Predict(nil, sc)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	return p.MeanRT
}

func TestSurfaceModelBias(t *testing.T) {
	m := newDefaultSurface()
	want := surfaceTruth(surfaceQuery)
	for _, b := range []float64{0, -3} {
		if err := m.ScriptFault("bias", b); err != nil {
			t.Fatal(err)
		}
		if got := predictRT(t, m, surfaceQuery); got != want {
			t.Errorf("bias %v: predicted %v, want the honest %v", b, got, want)
		}
	}
	if err := m.ScriptFault("bias", 2.5); err != nil {
		t.Fatal(err)
	}
	if got := predictRT(t, m, surfaceQuery); got != 2.5*want {
		t.Errorf("bias 2.5: predicted %v, want %v", got, 2.5*want)
	}
	if m.Name() != "s" || m.Predicts() != 3 {
		t.Errorf("Name() = %q, Predicts() = %d; want s, 3", m.Name(), m.Predicts())
	}
}

func TestSurfaceModelFaultModes(t *testing.T) {
	m := newDefaultSurface()
	if err := m.ScriptFault("fail", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict(nil, surfaceQuery); err == nil {
		t.Fatal("fail 1 still predicts")
	}
	if err := m.ScriptFault("fail", 0); err != nil {
		t.Fatal(err)
	}
	predictRT(t, m, surfaceQuery)

	if err := m.ScriptFault("panic", 1); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic 1 did not panic")
			}
		}()
		if _, err := m.Predict(nil, surfaceQuery); err != nil {
			t.Errorf("panic 1 returned an error instead: %v", err)
		}
	}()
	if err := m.ScriptFault("panic", 0); err != nil {
		t.Fatal(err)
	}

	const stall = 20 * time.Millisecond
	if err := m.ScriptFault("delay", stall.Seconds()); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	predictRT(t, m, surfaceQuery)
	if took := time.Since(start); took < stall {
		t.Errorf("delay %v: prediction took only %v", stall, took)
	}

	// clear lifts every switch at once.
	for _, f := range []struct {
		mode  string
		value float64
	}{{"bias", 4}, {"fail", 1}, {"panic", 1}} {
		if err := m.ScriptFault(f.mode, f.value); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.ScriptFault("clear", 0); err != nil {
		t.Fatal(err)
	}
	if got, want := predictRT(t, m, surfaceQuery), surfaceTruth(surfaceQuery); got != want {
		t.Errorf("after clear: predicted %v, want the honest %v", got, want)
	}
}

func TestSurfaceModelRejectsUnknownMode(t *testing.T) {
	if err := newDefaultSurface().ScriptFault("melt", 1); err == nil {
		t.Fatal("unknown fault mode accepted")
	}
}

// TestSurfaceModelTierPath routes the model through an estimator: the
// unsaturated surface is an exact M/M/1 mean, so the analytic tier
// answers it with the closed form's value; a saturated query never
// reaches the ladder and takes the heavy-traffic clamp.
func TestSurfaceModelTierPath(t *testing.T) {
	est, err := tier.New(tier.Spec{}, tier.Options{
		Engine:  sweep.New(sweep.Options{Metrics: obs.NewRegistry()}),
		Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	m := newDefaultSurface()
	m.SetTiers(est)

	// The analytic tier derives mu from the service distribution's mean,
	// so the two closed forms may round one ulp apart.
	if got, want := predictRT(t, m, surfaceQuery), surfaceTruth(surfaceQuery); math.Abs(got-want) > 1e-12*want {
		t.Errorf("unsaturated tiered prediction %v, SurfaceRT %v", got, want)
	}
	if st := est.Stats(); st.Answers != 1 || st.Analytic != 1 {
		t.Fatalf("estimator stats %+v: want one analytic answer", st)
	}

	saturated := core.Scenario{Cond: profiler.Condition{Timeout: 20}, ArrivalRate: 5}
	if got, want := predictRT(t, m, saturated), surfaceTruth(saturated); got != want {
		t.Errorf("saturated tiered prediction %v, closed form %v", got, want)
	}
	if st := est.Stats(); st.Answers != 1 {
		t.Fatalf("saturated query reached the estimator: %+v", st)
	}
}
