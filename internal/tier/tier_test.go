package tier

import (
	"math"
	"testing"

	"mdsprint/internal/dist"
	"mdsprint/internal/obs"
	"mdsprint/internal/queuesim"
	"mdsprint/internal/queuesim/analytic"
	"mdsprint/internal/sweep"
)

// newTestEstimator builds an estimator over a fresh engine and a fresh
// metrics registry, so tests never share cache or counter state.
func newTestEstimator(t *testing.T, spec Spec, workers int) *Estimator {
	t.Helper()
	e, err := New(spec, Options{
		Engine:  sweep.New(sweep.Options{Workers: workers, Metrics: obs.NewRegistry()}),
		Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// mm1Task is a no-sprint M/M/1 the analytic tier fully describes; the
// large horizon keeps the error model under the default bound.
func mm1Task(lambda, mu float64, queries int, seed uint64) sweep.Task {
	return sweep.Task{Params: queuesim.Params{
		ArrivalRate: lambda,
		Service:     dist.NewExponential(mu),
		ServiceRate: mu,
		Timeout:     -1,
		NumQueries:  queries,
		Seed:        seed,
	}, Reps: 2}
}

// sprintTask is a sprint-enabled config the analytic gate rejects, so
// it must flow to the simulation tiers.
func sprintTask(queries int, seed uint64) sweep.Task {
	return sweep.Task{Params: queuesim.Params{
		ArrivalRate: 8, Service: dist.NewExponential(10), ServiceRate: 10,
		SprintRate: 18, Timeout: 0.12, BudgetSeconds: 20, RefillTime: 80,
		NumQueries: queries, Seed: seed,
	}, Reps: 2}
}

func predBits(p queuesim.Prediction) [3]uint64 {
	return [3]uint64{
		math.Float64bits(p.MeanRT),
		math.Float64bits(p.P95RT),
		math.Float64bits(p.P99RT),
	}
}

// TestAnalyticTierServes: an eligible M/M/1 query is answered by the
// closed form — exact mean, exact exponential-response quantiles, error
// estimate within the bound, and no simulation on the engine.
func TestAnalyticTierServes(t *testing.T) {
	est := newTestEstimator(t, Spec{}, 2)
	const lambda, mu = 0.5, 1.0
	pred, dec, err := est.Estimate(mm1Task(lambda, mu, 40000, 1))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Tier != TierAnalytic {
		t.Fatalf("tier %v (escalations %#x), want analytic", dec.Tier, dec.Escalations)
	}
	if want := 1 / (mu - lambda); pred.MeanRT != want {
		t.Fatalf("MeanRT %v, want exact %v", pred.MeanRT, want)
	}
	// M/M/1 FIFO response is Exp(mu-lambda): quantiles are closed-form.
	if want := math.Log(20) / (mu - lambda); math.Abs(pred.P95RT-want) > 1e-12 {
		t.Fatalf("P95 %v, want %v", pred.P95RT, want)
	}
	if want := math.Log(100) / (mu - lambda); math.Abs(pred.P99RT-want) > 1e-12 {
		t.Fatalf("P99 %v, want %v", pred.P99RT, want)
	}
	if !(dec.ErrEstimate > 0 && dec.ErrEstimate <= dec.Bound) {
		t.Fatalf("ErrEstimate %v outside (0, %v]", dec.ErrEstimate, dec.Bound)
	}
	if s := est.eng.Stats(); s.Tasks != 0 {
		t.Fatalf("analytic answer touched the engine: %+v", s)
	}
	if s := est.Stats(); s.Answers != 1 || s.Analytic != 1 {
		t.Fatalf("stats %+v, want one analytic answer", s)
	}

	// A non-exponential service keeps the mean (P-K) but has no
	// closed-form quantiles: they must be NaN, never a fabrication.
	lp := mm1Task(lambda, mu, 40000, 2)
	lp.Params.Service = dist.Deterministic{Value: 1 / mu}
	pred, dec, err = est.Estimate(lp)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Tier != TierAnalytic {
		t.Fatalf("M/D/1 tier %v, want analytic", dec.Tier)
	}
	if !math.IsNaN(pred.P95RT) || !math.IsNaN(pred.P99RT) {
		t.Fatalf("M/D/1 quantiles %v/%v, want NaN", pred.P95RT, pred.P99RT)
	}
}

// TestCacheTierServes: once the full tier has paid for an answer, an
// identical query is served from the sweep cache, bit-identical.
func TestCacheTierServes(t *testing.T) {
	est := newTestEstimator(t, Spec{NoShort: true}, 2)
	task := sprintTask(600, 3)

	first, dec, err := est.Estimate(task)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Tier != TierFull {
		t.Fatalf("cold tier %v, want full", dec.Tier)
	}
	if dec.Escalations&EscAnalyticGate == 0 || dec.Escalations&EscCacheMiss == 0 || dec.Escalations&EscShortOff == 0 {
		t.Fatalf("cold escalations %#x missing gate|miss|shortoff", dec.Escalations)
	}

	second, dec, err := est.Estimate(task)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Tier != TierCache {
		t.Fatalf("warm tier %v, want cache", dec.Tier)
	}
	if dec.ErrEstimate != 0 {
		t.Fatalf("cache ErrEstimate %v, want 0", dec.ErrEstimate)
	}
	if predBits(first) != predBits(second) {
		t.Fatalf("cache answer %+v != full answer %+v", second, first)
	}
	s := est.Stats()
	if s.Answers != 2 || s.Full != 1 || s.Cache != 1 || s.CacheMisses != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.CheapRate() != 0.5 {
		t.Fatalf("CheapRate %v, want 0.5", s.CheapRate())
	}
}

// TestShortTierServes: a sprint config under a loose bound is settled
// by short replications; the same config under a needle bound escalates
// to full with EscShortCI on record.
func TestShortTierServes(t *testing.T) {
	loose := newTestEstimator(t, Spec{Bound: 0.5, NoCache: true}, 2)
	task := sprintTask(4000, 5)
	pred, dec, err := loose.Estimate(task)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Tier != TierShort {
		t.Fatalf("loose tier %v (esc %#x, errEst %v), want short", dec.Tier, dec.Escalations, dec.ErrEstimate)
	}
	if !(dec.ErrEstimate > 0 && dec.ErrEstimate <= loose.Spec().Bound) {
		t.Fatalf("short ErrEstimate %v outside bound %v", dec.ErrEstimate, loose.Spec().Bound)
	}
	if !(pred.MeanRT > 0) || pred.Replications != loose.Spec().ShortReps {
		t.Fatalf("short prediction %+v", pred)
	}

	tight := newTestEstimator(t, Spec{Bound: 0.005, NoCache: true}, 2)
	_, dec, err = tight.Estimate(task)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Tier != TierFull {
		t.Fatalf("tight tier %v, want full", dec.Tier)
	}
	if dec.Escalations&EscShortCI == 0 {
		t.Fatalf("tight escalations %#x missing EscShortCI", dec.Escalations)
	}
}

// TestBypassTiers: tasks carrying a tracer or clock must reach the real
// evaluation (their side effects are the point), recorded as EscBypass.
func TestBypassTiers(t *testing.T) {
	est := newTestEstimator(t, Spec{}, 1)
	task := mm1Task(0.5, 1, 40000, 7)
	task.Params.Tracer = obs.NewRingTracer(64)
	_, dec, err := est.Estimate(task)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Tier != TierFull || dec.Escalations != EscBypass {
		t.Fatalf("traced task: tier %v esc %#x, want full/bypass", dec.Tier, dec.Escalations)
	}
	if est.Stats().Bypasses != 1 {
		t.Fatalf("stats %+v, want one bypass", est.Stats())
	}
}

// TestDisabledTiers: a spec with every cheap tier off degenerates to
// always-full — the configuration the differential baseline runs.
func TestDisabledTiers(t *testing.T) {
	est := newTestEstimator(t, Spec{NoAnalytic: true, NoCache: true, NoShort: true}, 2)
	task := mm1Task(0.5, 1, 2000, 9)
	for i := 0; i < 2; i++ {
		_, dec, err := est.Estimate(task)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Tier != TierFull {
			t.Fatalf("pass %d: tier %v, want full", i, dec.Tier)
		}
		want := EscAnalyticOff | EscCacheOff | EscShortOff
		if dec.Escalations != want {
			t.Fatalf("pass %d: escalations %#x, want %#x", i, dec.Escalations, want)
		}
	}
}

// TestEscalationMonotone is the property the ladder is named for:
// tightening the bound never picks a cheaper tier. Each bound gets a
// fresh estimator and engine so cache warming cannot mask an inversion.
func TestEscalationMonotone(t *testing.T) {
	bounds := []float64{1, 0.5, 0.25, 0.12, 0.06, 0.03, 0.015, 0.005}
	tasks := []sweep.Task{
		mm1Task(0.5, 1, 4000, 11),
		mm1Task(0.85, 1, 4000, 12),
		sprintTask(2000, 13),
	}
	for ti, task := range tasks {
		prev := TierAnalytic
		for _, b := range bounds {
			est := newTestEstimator(t, Spec{Bound: b}, 2)
			_, dec, err := est.Estimate(task)
			if err != nil {
				t.Fatal(err)
			}
			if dec.Tier < prev {
				t.Fatalf("task %d: bound %v served by %v after %v served a looser bound — escalation not monotone",
					ti, b, dec.Tier, prev)
			}
			if dec.Bound != b {
				t.Fatalf("task %d: decision bound %v, want %v", ti, dec.Bound, b)
			}
			prev = dec.Tier
		}
	}
}

// TestAnalyticErrModel pins the error model's shape: grows with
// utilization and service variability, shrinks with simulated volume,
// infinite outside stability.
func TestAnalyticErrModel(t *testing.T) {
	p := func(lambda float64, queries int, service dist.Dist) queuesim.Params {
		return queuesim.Params{
			ArrivalRate: lambda, Service: service, ServiceRate: 1,
			Timeout: -1, NumQueries: queries,
		}.Canonical()
	}
	exp := dist.NewExponential(1)
	low := analyticErrEstimate(p(0.3, 30000, exp), 2)
	high := analyticErrEstimate(p(0.9, 30000, exp), 2)
	if !(low < high) {
		t.Fatalf("errEst not increasing in rho: %v !< %v", low, high)
	}
	small := analyticErrEstimate(p(0.7, 500, exp), 1)
	big := analyticErrEstimate(p(0.7, 50000, exp), 4)
	if !(big < small) {
		t.Fatalf("errEst not decreasing in volume: %v !< %v", big, small)
	}
	ln := dist.LogNormalFromMeanCV(1.0, 2.5)
	bursty := analyticErrEstimate(p(0.7, 30000, ln), 2)
	smooth := analyticErrEstimate(p(0.7, 30000, exp), 2)
	if !(bursty > smooth) {
		t.Fatalf("errEst ignores service variability: %v !> %v", bursty, smooth)
	}
	if v := analyticErrEstimate(p(1.2, 30000, exp), 2); !math.IsInf(v, 1) {
		t.Fatalf("overloaded errEst %v, want +Inf", v)
	}
}

// TestStatsAccounting covers Sub, Dominant and the tier partition.
func TestStatsAccounting(t *testing.T) {
	est := newTestEstimator(t, Spec{NoShort: true}, 2)
	before := est.Stats()
	if _, ok := before.Dominant(); ok {
		t.Fatal("empty stats claim a dominant tier")
	}
	if _, _, err := est.Estimate(mm1Task(0.5, 1, 40000, 41)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := est.Estimate(mm1Task(0.55, 1, 40000, 42)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := est.Estimate(sprintTask(400, 43)); err != nil {
		t.Fatal(err)
	}
	d := est.Stats().Sub(before)
	if d.Answers != 3 || d.Analytic != 2 || d.Full != 1 {
		t.Fatalf("delta %+v", d)
	}
	if d.Analytic+d.Cache+d.Short+d.Full != d.Answers {
		t.Fatalf("tiers do not partition answers: %+v", d)
	}
	if got, ok := d.Dominant(); !ok || got != TierAnalytic {
		t.Fatalf("Dominant = %v/%v, want analytic", got, ok)
	}
	if d.CheapRate() < 0.6 {
		t.Fatalf("CheapRate %v", d.CheapRate())
	}
}

// TestTierStrings pins the preinterned names the decision ledger
// records.
func TestTierStrings(t *testing.T) {
	want := map[Tier]string{TierAnalytic: "analytic", TierCache: "cache", TierShort: "short", TierFull: "full"}
	for tier, name := range want {
		if tier.String() != name {
			t.Fatalf("%d.String() = %q, want %q", tier, tier.String(), name)
		}
	}
	if Tier(200).String() != "none" {
		t.Fatalf("out-of-range tier name %q", Tier(200).String())
	}
}

// TestAnalyticAgreesWithEngine closes the loop between the tiers: the
// analytic answer and a real full evaluation of the same task must
// agree within the decision's advertised error estimate.
func TestAnalyticAgreesWithEngine(t *testing.T) {
	for _, lambda := range []float64{0.3, 0.5, 0.7} {
		task := mm1Task(lambda, 1, 30000, 51)
		est := newTestEstimator(t, Spec{}, 2)
		pred, dec, err := est.Estimate(task)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Tier != TierAnalytic {
			t.Fatalf("lambda %v: tier %v, want analytic", lambda, dec.Tier)
		}
		truth, err := est.eng.Evaluate(task)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(pred.MeanRT-truth.MeanRT) / truth.MeanRT
		if rel > dec.ErrEstimate {
			t.Fatalf("lambda %v: realized error %v exceeds advertised estimate %v", lambda, rel, dec.ErrEstimate)
		}
	}
}

// TestNewValidates: the constructor rejects invalid specs.
func TestNewValidates(t *testing.T) {
	for _, spec := range []Spec{{Bound: 2}, {ShortReps: 1}} {
		if _, err := New(spec, Options{}); err == nil {
			t.Fatalf("New accepted %+v", spec)
		}
	}
}

// TestAnalyticApplicabilityAgreement: the tier's gate and the analytic
// package agree — whenever analytic.MeanRT accepts a no-tracer
// task, a fresh default estimator with a loose bound serves it
// analytically.
func TestAnalyticApplicabilityAgreement(t *testing.T) {
	tasks := []sweep.Task{
		mm1Task(0.5, 1, 20000, 61), // accepted
		sprintTask(800, 62),        // rejected: sprinting
		{Params: queuesim.Params{ // rejected: SERPT has no closed form
			ArrivalRate: 0.5, Service: dist.NewExponential(1), ServiceRate: 1,
			Timeout: -1, NumQueries: 20000, Seed: 63,
			Discipline: queuesim.Discipline{Kind: queuesim.DiscSERPT, PredictCV: 0.5},
		}, Reps: 2},
	}
	for i, task := range tasks {
		est := newTestEstimator(t, Spec{Bound: 1}, 2)
		_, dec, err := est.Estimate(task)
		if err != nil {
			t.Fatal(err)
		}
		_, aerr := analytic.MeanRT(task.Params)
		eligible := aerr == nil
		served := dec.Tier == TierAnalytic
		if eligible != served {
			t.Fatalf("task %d: applicability %v but tier %v (esc %#x)", i, eligible, dec.Tier, dec.Escalations)
		}
	}
}

func TestEscalationString(t *testing.T) {
	cases := []struct {
		esc  uint32
		want string
	}{
		{0, "-"},
		{EscBypass, "bypass"},
		{EscAnalyticGate | EscCacheMiss, "analytic-gate,cache-miss"},
		{EscAnalyticOff | EscCacheOff | EscShortOff, "analytic-off,cache-off,short-off"},
		{EscAnalyticBound | EscShortCI | EscShortErr, "analytic-bound,short-ci,short-err"},
	}
	for _, c := range cases {
		if got := (Decision{Escalations: c.esc}).EscalationString(); got != c.want {
			t.Errorf("EscalationString(%#x) = %q, want %q", c.esc, got, c.want)
		}
	}
}

// TestEstimateReportsSimulationError: an invalid task fails its short
// replications, escalates to the full tier and surfaces the simulator's
// error instead of a silent zero prediction.
func TestEstimateReportsSimulationError(t *testing.T) {
	est := newTestEstimator(t, Spec{NoAnalytic: true, NoCache: true}, 2)
	bad := mm1Task(0.7, 1, 2000, 12)
	bad.Params.ArrivalRate = -1 // rejected by the simulator's validation
	_, dec, err := est.Estimate(bad)
	if err == nil {
		t.Fatal("invalid task returned no error")
	}
	if dec.Tier != TierFull || dec.Escalations&EscShortErr == 0 {
		t.Fatalf("invalid task decision %+v: want full tier with short-err", dec)
	}
}

func TestTaskRepsDefault(t *testing.T) {
	est := newTestEstimator(t, Spec{}, 1)
	task := mm1Task(0.4, 1, 4000, 5)
	task.Reps = 0 // the engine's default replication count applies
	_, dec, err := est.Estimate(task)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Tier != TierAnalytic {
		t.Fatalf("tier %v, want analytic", dec.Tier)
	}
}

func TestStatsCheapRateEmpty(t *testing.T) {
	if r := (Stats{}).CheapRate(); r != 0 {
		t.Fatalf("empty CheapRate = %v, want 0", r)
	}
	if _, ok := (Stats{}).Dominant(); ok {
		t.Fatal("empty snapshot has a dominant tier")
	}
}

// TestNewRejectsInvalidSpec: an invalid spec is rejected even when the
// options supply an engine and a metrics registry.
func TestNewRejectsInvalidSpec(t *testing.T) {
	if _, err := New(Spec{Bound: 2}, Options{Engine: sweep.New(sweep.Options{Metrics: obs.NewRegistry()}), Metrics: obs.NewRegistry()}); err == nil {
		t.Fatal("New accepted an invalid spec")
	}
}
