package policies

import (
	"math"
	"testing"

	"mdsprint/internal/mech"
	"mdsprint/internal/obs"
	"mdsprint/internal/profiler"
	"mdsprint/internal/queuesim"
	"mdsprint/internal/sprint"
	"mdsprint/internal/sweep"
	"mdsprint/internal/tier"
	"mdsprint/internal/workload"
)

// throttledJacobi profiles Jacobi under Section 4.3's CPU throttling:
// sustained 14.8 qph, sprint 74 qph.
func throttledJacobi(t *testing.T) Context {
	t.Helper()
	p := &profiler.Profiler{
		Mix:           workload.SingleClass(workload.MustByName("Jacobi")),
		Mechanism:     mech.NewThrottle(0.20),
		QueriesPerRun: 800,
		Seed:          3,
	}
	mu, samples, _ := p.MeasureServiceRate()
	mum, _ := p.MeasureMarginalRate()
	ds := &profiler.Dataset{
		MixName: "Jacobi", MechName: "Throttle20%",
		ServiceRate: mu, MarginalRate: mum, ServiceSamples: samples,
	}
	return Context{
		Dataset:     ds,
		ArrivalRate: 0.8 * mu, // Section 4.3: 80% utilization
		RefillTime:  600,
		BudgetPct:   0.30,
		SimQueries:  2500,
		SimReps:     2,
		Seed:        7,
	}
}

func TestBigBurstShape(t *testing.T) {
	c := throttledJacobi(t)
	s := BigBurst(c)
	if s.Timeout != 0 || s.BudgetPct != c.BudgetPct || s.Speedup != 0 {
		t.Fatalf("big-burst = %+v", s)
	}
}

func TestSmallBurstReducesRateEnlargesBudget(t *testing.T) {
	c := throttledJacobi(t)
	s := SmallBurst(c)
	if s.Timeout != 0 {
		t.Fatalf("small-burst timeout %v", s.Timeout)
	}
	if s.BudgetPct <= c.BudgetPct {
		t.Fatalf("small-burst budget %v not enlarged from %v", s.BudgetPct, c.BudgetPct)
	}
	full := c.Dataset.MarginalSpeedup()
	if s.Speedup >= full || s.Speedup <= 1 {
		t.Fatalf("small-burst speedup %v not between 1 and %v", s.Speedup, full)
	}
}

func TestFewToManyExhaustsBudget(t *testing.T) {
	c := throttledJacobi(t)
	// Make the budget genuinely tight: at 80% utilization and 5x
	// speedup, sprint demand is at most util/speedup = 0.16 sprint-
	// seconds per second, so an 8% refill supply is exhaustible while
	// the default 30% never is.
	c.BudgetPct = 0.08
	s, err := FewToMany(c)
	if err != nil {
		t.Fatal(err)
	}
	if s.Timeout < 0 {
		t.Fatalf("few-to-many timeout %v", s.Timeout)
	}
	// The chosen timeout must exhaust the budget (>= 90% utilisation).
	p := simParams(c.withDefaults(), s.Timeout, s.BudgetPct, c.Dataset.MarginalRate)
	res := queuesim.MustRun(p)
	if u := res.BudgetUtilization(p); u < 0.85 {
		t.Fatalf("few-to-many timeout %v leaves budget %v utilised", s.Timeout, u)
	}
}

func TestAdrenalineTimeoutIsTailPercentile(t *testing.T) {
	c := throttledJacobi(t)
	s, err := Adrenaline(c)
	if err != nil {
		t.Fatal(err)
	}
	// The threshold references normal-speed (unthrottled) operation:
	// above one full-speed service time, far below the throttled
	// response-time scale.
	fullSvc := 1 / c.Dataset.MarginalRate
	throttledSvc := 1 / c.Dataset.ServiceRate
	if s.Timeout <= fullSvc {
		t.Fatalf("adrenaline timeout %v <= full-speed service %v", s.Timeout, fullSvc)
	}
	if s.Timeout >= 3*throttledSvc {
		t.Fatalf("adrenaline timeout %v references the throttled distribution", s.Timeout)
	}
}

// expectedRT scores a setting's mean response time at sprintRate
// through c.meanRT, the path JointSearch scores its candidates on.
func expectedRT(t *testing.T, c Context, s Setting, sprintRate float64) float64 {
	t.Helper()
	c = c.withDefaults()
	mean, err := c.meanRT(sweep.Task{Params: simParams(c, s.Timeout, s.BudgetPct, sprintRate), Reps: c.SimReps})
	if err != nil {
		t.Fatal(err)
	}
	return mean
}

func TestExpectedRTOrdersPolicies(t *testing.T) {
	c := throttledJacobi(t)
	// Sprinting at the marginal rate must beat no sprinting at all.
	noSprint := expectedRT(t, c, Setting{Timeout: -1}, 0)
	big := expectedRT(t, c, BigBurst(c), c.Dataset.MarginalRate)
	if big >= noSprint {
		t.Fatalf("big-burst RT %v >= no-sprint RT %v", big, noSprint)
	}
}

func TestErrorsOnEmptyDataset(t *testing.T) {
	c := Context{Dataset: &profiler.Dataset{ServiceRate: 0.01}, ArrivalRate: 0.005, RefillTime: 100, BudgetPct: 0.2}
	if _, err := FewToMany(c); err == nil {
		t.Fatal("FewToMany accepted empty dataset")
	}
	if _, err := Adrenaline(c); err == nil {
		t.Fatal("Adrenaline accepted empty dataset")
	}
}

func TestThrottleMatchesSection43Rates(t *testing.T) {
	c := throttledJacobi(t)
	if got := sprint.ToQPH(c.Dataset.ServiceRate); got < 13 || got > 15.5 {
		t.Fatalf("throttled sustained %v qph, want ~14.8", got)
	}
	if got := sprint.ToQPH(c.Dataset.MarginalRate); got < 60 || got > 76 {
		t.Fatalf("throttled sprint rate %v qph, want ~70", got)
	}
}

// TestExpectedRTViaTiers checks that meanRT's tiered path answers within
// its advertised error bound of the direct engine evaluation, and that
// the estimator actually saw the queries.
func TestExpectedRTViaTiers(t *testing.T) {
	c := throttledJacobi(t)
	s := BigBurst(c)
	rate := c.Dataset.MarginalRate

	full := expectedRT(t, c, s, rate)

	tc := c
	var err error
	tc.Tiers, err = tier.New(tier.Spec{Bound: 0.1}, tier.Options{
		Engine:  sweep.New(sweep.Options{Metrics: obs.NewRegistry()}),
		Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	tiered := expectedRT(t, tc, s, rate)

	if rel := math.Abs(tiered-full) / full; rel > tc.Tiers.Spec().Bound {
		t.Fatalf("tiered mean RT %v vs full %v: relative error %.3f exceeds bound", tiered, full, rel)
	}
	if st := tc.Tiers.Stats(); st.Answers == 0 {
		t.Fatal("tier estimator saw no queries")
	}
}
