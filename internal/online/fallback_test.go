package online

import (
	"context"
	"fmt"
	"testing"

	"mdsprint/internal/core"
	"mdsprint/internal/dist"
	"mdsprint/internal/fault"
	"mdsprint/internal/obs"
	"mdsprint/internal/profiler"
	"mdsprint/internal/queuesim"
	"mdsprint/internal/sweep"
	"mdsprint/internal/tier"
)

// scriptModel is a test model whose predictions are a scripted function
// of the scenario.
type scriptModel struct {
	name string
	fn   func(sc core.Scenario) (core.Prediction, error)
}

func (m scriptModel) Name() string { return m.name }

func (m scriptModel) Predict(_ *profiler.Dataset, sc core.Scenario) (core.Prediction, error) {
	return m.fn(sc)
}

// flatModel predicts a constant response time (a trivially healthy model
// when observations match it).
func flatModel(name string, rt float64) scriptModel {
	return scriptModel{name: name, fn: func(core.Scenario) (core.Prediction, error) {
		return core.Prediction{MeanRT: rt}, nil
	}}
}

// brokenModel always fails to predict.
func brokenModel(name string) scriptModel {
	return scriptModel{name: name, fn: func(core.Scenario) (core.Prediction, error) {
		return core.Prediction{}, fmt.Errorf("%s: model unavailable", name)
	}}
}

func fallbackConfig(primary, fallback core.Model, reg *obs.Registry) FallbackConfig {
	return FallbackConfig{
		Primary:    primary,
		Fallback:   fallback,
		Dataset:    &profiler.Dataset{ServiceRate: 1, MarginalRate: 1.8},
		MaxTimeout: 60,
		AnnealIter: 20,
		Seed:       3,
		Metrics:    reg,
	}
}

func TestNewFallbackControllerValidation(t *testing.T) {
	reg := obs.NewRegistry()
	healthy := flatModel("healthy", 10)
	if _, err := NewFallbackController(fallbackConfig(nil, healthy, reg)); err == nil {
		t.Error("nil primary accepted")
	}
	if _, err := NewFallbackController(fallbackConfig(healthy, nil, reg)); err == nil {
		t.Error("nil fallback accepted")
	}
	cfg := fallbackConfig(healthy, healthy, reg)
	cfg.Dataset = nil
	if _, err := NewFallbackController(cfg); err == nil {
		t.Error("nil dataset accepted")
	}
	fc, err := NewFallbackController(fallbackConfig(healthy, healthy, reg))
	if err != nil {
		t.Fatal(err)
	}
	if fc.Level() != LevelHybrid {
		t.Errorf("fresh controller at level %s, want hybrid", fc.Level())
	}
	if fc.haveGood {
		t.Error("fresh controller claims a banked timeout")
	}
}

func TestTimeoutDemotesOnSearchFailure(t *testing.T) {
	fc, err := NewFallbackController(fallbackConfig(
		brokenModel("primary"), flatModel("fallback", 8), obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	to, err := fc.TimeoutCtx(context.Background(), 1.0)
	if err != nil {
		t.Fatalf("fallback tier did not rescue the decision: %v", err)
	}
	if to < 0 || to > 60 {
		t.Errorf("timeout %v outside [0, 60]", to)
	}
	if fc.Level() != LevelNoML {
		t.Errorf("level %s after a primary search failure, want noml", fc.Level())
	}
	if d, _ := fc.Counts(); d != 1 {
		t.Errorf("demotions = %d, want 1", d)
	}
}

func TestTimeoutBottomsOutWhenAllTiersFail(t *testing.T) {
	fc, err := NewFallbackController(fallbackConfig(
		brokenModel("primary"), brokenModel("fallback"), obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fc.TimeoutCtx(context.Background(), 1.0); err == nil {
		t.Fatal("both tiers broken and nothing banked, yet a timeout was produced")
	}
	if fc.Level() != LevelStatic {
		t.Errorf("level %s after the whole chain failed, want static", fc.Level())
	}
}

func TestStaticTierServesBankedTimeout(t *testing.T) {
	reg := obs.NewRegistry()
	fc, err := NewFallbackController(fallbackConfig(
		flatModel("primary", 10), flatModel("fallback", 12), reg))
	if err != nil {
		t.Fatal(err)
	}
	to, err := fc.TimeoutCtx(context.Background(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Perfectly-tracking observations bank the decision as
	// last-known-good once the watchdog has enough evidence.
	for i := 0; i < 8; i++ {
		fc.Observe(1.0, 10)
	}
	banked := fc.lastGoodTO
	if !fc.haveGood {
		t.Fatal("healthy evidence did not bank a last-known-good timeout")
	}
	if banked < to || banked > to {
		t.Errorf("banked %v, want the decision in force %v", banked, to)
	}
	fc.demote()
	fc.demote()
	if fc.Level() != LevelStatic {
		t.Fatalf("level %s, want static", fc.Level())
	}
	got, err := fc.TimeoutCtx(context.Background(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if got < banked || got > banked {
		t.Errorf("static tier served %v, want the banked %v", got, banked)
	}
	if v := reg.Counter("mdsprint_online_static_decisions_total", "").Value(); v < 1 {
		t.Errorf("static-decisions counter %v, want >= 1", v)
	}
	// The guards hold at the chain's ends.
	fc.demote()
	if fc.Level() != LevelStatic {
		t.Error("demote below static moved the level")
	}
	fresh, _ := NewFallbackController(fallbackConfig(flatModel("p", 1), flatModel("f", 1), reg))
	fresh.promote()
	if fresh.Level() != LevelHybrid {
		t.Error("promote above hybrid moved the level")
	}
}

func TestObservePredictionFailuresDemote(t *testing.T) {
	reg := obs.NewRegistry()
	failing := false
	primary := scriptModel{name: "flaky", fn: func(core.Scenario) (core.Prediction, error) {
		if failing {
			return core.Prediction{}, fmt.Errorf("flaky: poisoned")
		}
		return core.Prediction{MeanRT: 10}, nil
	}}
	fc, err := NewFallbackController(fallbackConfig(primary, flatModel("fallback", 10), reg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fc.TimeoutCtx(context.Background(), 1.0); err != nil {
		t.Fatal(err)
	}
	failing = true
	for i := 0; i < 20 && fc.Level() == LevelHybrid; i++ {
		fc.Observe(1.0, 10)
	}
	if fc.Level() == LevelHybrid {
		t.Fatal("sustained prediction failures never demoted the controller")
	}
	if v := reg.Counter("mdsprint_online_predict_failures_total", "").Value(); v < 1 {
		t.Errorf("predict-failures counter %v, want >= 1", v)
	}
}

func TestControllerBreakerSuppressesRetunes(t *testing.T) {
	br := fault.NewBreaker(fault.BreakerConfig{
		FailureThreshold: 1, CooldownCalls: 1, HalfOpenSuccesses: 1, Metrics: obs.NewRegistry(),
	})
	failing := true
	model := scriptModel{name: "flaky", fn: func(sc core.Scenario) (core.Prediction, error) {
		if failing {
			return core.Prediction{}, fmt.Errorf("flaky: down")
		}
		return core.Prediction{MeanRT: 5 + sc.Cond.Timeout*0.01}, nil
	}}
	c := &Controller{
		Model:   model,
		Dataset: &profiler.Dataset{ServiceRate: 1, MarginalRate: 1.8},
		Base:    profiler.Condition{}, MaxTimeout: 60, AnnealIter: 20, Seed: 7,
		Metrics: obs.NewRegistry(), Breaker: br,
	}
	if _, err := c.Timeout(1.0); err == nil {
		t.Fatal("failing model retuned successfully")
	}
	if br.State() != fault.Open {
		t.Fatalf("breaker %s after a search failure, want open", br.State())
	}
	// While open with no prior decision there is nothing safe to ride.
	if _, err := c.Timeout(1.0); err == nil {
		t.Fatal("open breaker with no decision produced a timeout")
	}
	// Half-open probe with a recovered model closes the breaker and
	// finally produces a decision.
	failing = false
	to, err := c.Timeout(1.0)
	if err != nil {
		t.Fatalf("half-open probe with a healthy model failed: %v", err)
	}
	if br.State() != fault.Closed {
		t.Fatalf("breaker %s after a healthy probe, want closed", br.State())
	}
	// Trip it again: with a decision in force, an open breaker rides the
	// current timeout instead of erroring.
	br.Failure()
	failing = true
	got, err := c.Timeout(5.0) // large drift would normally retune
	if err != nil {
		t.Fatalf("open breaker with a decision errored: %v", err)
	}
	if got < to || got > to {
		t.Errorf("open breaker changed the decision: %v -> %v", to, got)
	}
}

func TestChaosModelAndViolations(t *testing.T) {
	m := NewSurfaceModel("chaos-x", 1, 0.8, 20)
	if m.Name() != "chaos-x" {
		t.Errorf("Name() = %q", m.Name())
	}
	res := &ChaosResult{MaxLevel: LevelStatic, EndLevel: LevelStatic}
	sc := fault.Scenario{Expect: fault.Expect{MaxLevel: fault.LevelHybridIdx, EndLevel: fault.LevelHybridIdx}}
	if v := res.Violations(sc); len(v) != 2 {
		t.Errorf("got %d violations, want 2: %v", len(v), v)
	}
}

// TestDecisionRecordsEstimatorTier wires a staged tier estimator into
// the decide path and checks each DecisionRecord carries the estimator
// provenance — which ladder tier dominated the decision's model queries
// and how many were answered below simulation cost — while the
// fingerprint chain stays invariant to it (tier choice depends on cache
// warmth, which replays legitimately differ on).
func TestDecisionRecordsEstimatorTier(t *testing.T) {
	reg := obs.NewRegistry()
	est, err := tier.New(tier.Spec{}, tier.Options{
		Engine:  sweep.New(sweep.Options{Metrics: obs.NewRegistry()}),
		Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The primary model queries the estimator with an analytic-eligible
	// M/M/1 task, the way a tiered core model would.
	primary := scriptModel{name: "tiered", fn: func(core.Scenario) (core.Prediction, error) {
		mean, _, err := est.MeanRT(sweep.Task{Params: queuesim.Params{
			ArrivalRate: 0.5, Service: dist.NewExponential(1), ServiceRate: 1,
			Timeout: -1, NumQueries: 4000, Seed: 9,
		}, Reps: 2})
		return core.Prediction{MeanRT: mean}, err
	}}
	led := NewDecisionLedger()
	cfg := fallbackConfig(primary, flatModel("fallback", 10), reg)
	cfg.Ledger = led
	cfg.Tiers = est
	fc, err := NewFallbackController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fc.TimeoutCtx(context.Background(), 0.5); err != nil {
		t.Fatal(err)
	}
	recs := led.Records()
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.EstTier != tier.TierAnalytic.String() {
		t.Fatalf("EstTier = %q, want %q", r.EstTier, tier.TierAnalytic)
	}
	if r.EstQueries == 0 || r.EstCheap == 0 || r.EstCheap > r.EstQueries {
		t.Fatalf("EstQueries=%d EstCheap=%d: want both positive with cheap <= queries", r.EstQueries, r.EstCheap)
	}

	// Fingerprint invariance: the same record with the estimator fields
	// zeroed hashes identically — provenance is observability, not
	// replay identity.
	scrubbed := r
	scrubbed.EstTier, scrubbed.EstQueries, scrubbed.EstCheap = "", 0, 0
	if r.fingerprintBits() != scrubbed.fingerprintBits() {
		t.Fatal("estimator provenance leaked into the decision fingerprint")
	}
}
