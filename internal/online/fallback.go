package online

import (
	"context"
	"fmt"

	"mdsprint/internal/core"
	"mdsprint/internal/fault"
	"mdsprint/internal/obs"
	"mdsprint/internal/profiler"
	"mdsprint/internal/sweep"
	"mdsprint/internal/tier"
)

// FallbackConfig builds a FallbackController.
type FallbackConfig struct {
	// Primary is the fully model-driven tier (typically core.Hybrid);
	// Fallback is the prediction-free tier (typically core.NoML). Both
	// are required.
	Primary  core.Model
	Fallback core.Model
	// Dataset, Base, MaxTimeout, AnnealIter, Seed and RetuneThreshold
	// configure the per-tier Controllers (see Controller).
	Dataset         *profiler.Dataset
	Base            profiler.Condition
	MaxTimeout      float64
	AnnealIter      int
	Seed            uint64
	RetuneThreshold float64
	// Watchdog tunes the health windows (zero values take defaults).
	Watchdog WatchdogConfig
	// Breaker, when set, circuit-breaks the primary tier's annealing
	// searches (see Controller.Breaker). May be nil.
	Breaker *fault.Breaker
	// Metrics receives level changes and residuals; nil records into
	// obs.Default().
	Metrics *obs.Registry
	// Ledger, when set, receives a DecisionRecord per selection. May be
	// nil.
	Ledger *DecisionLedger
	// Engine is the sweep engine whose cache hit ratio decisions record;
	// nil reads the process-shared engine.
	Engine *sweep.Engine
	// Tiers, when set, is the staged estimator the models were built
	// over (sprintd sets it for a tenant with a tier spec, beside each
	// SurfaceModel's SetTiers); each decision stamps the estimator-tier
	// provenance (which ladder tier dominated the decision's model
	// queries, and how many were answered below simulation cost) into
	// its DecisionRecord. May be nil; only then, and only over models
	// that report no tiers of their own, may the searches score ahead
	// (see Controller).
	Tiers *tier.Estimator
	// Clock times selections and searches for decision provenance; nil
	// uses the real clock.
	Clock obs.Clock
}

// fallbackMetrics are the degradation-plane instrumentation handles.
type fallbackMetrics struct {
	level        *obs.Gauge
	demotions    *obs.Counter
	promotions   *obs.Counter
	residual     *obs.Histogram
	predictFails *obs.Counter
	staticHolds  *obs.Counter

	decisions     *obs.Counter
	tier          [3]*obs.Counter // per-tier decision counts, indexed by Level
	decRetunes    *obs.Counter
	selectSeconds *obs.Histogram
	searchSeconds *obs.Histogram
}

// FallbackController is the graceful-degradation control plane of the
// paper's Section 5 challenge, shaped after SkipPredict's fall-back
// reflex: drive timeouts with the primary model while it tracks
// reality, demote one level at a time down the chain Hybrid → NoML →
// last-known-good static timeout as prediction residuals decay, and
// re-promote gradually (hysteresis) as a recovering tier proves itself
// against live observations. It is not safe for concurrent use.
type FallbackController struct {
	cfg      FallbackConfig
	primary  *Controller
	fallback *Controller

	level  Level
	active *Watchdog // health of the tier currently in control
	probe  *Watchdog // shadow health of the next-better tier

	lastTO   float64
	lastRate float64
	haveTO   bool

	lastGoodTO float64
	haveGood   bool

	demotions  int
	promotions int

	m fallbackMetrics
}

// tiered reports whether m says a tier estimator answers its
// predictions, as a SurfaceModel does after SetTiers. The core models
// never do: they always simulate.
func tiered(m core.Model) bool {
	t, ok := m.(interface{ Tiered() bool })
	return ok && t.Tiered()
}

// NewFallbackController validates the config and returns a controller
// starting at LevelHybrid.
func NewFallbackController(cfg FallbackConfig) (*FallbackController, error) {
	if cfg.Primary == nil || cfg.Fallback == nil {
		return nil, fmt.Errorf("online: fallback controller needs both a primary and a fallback model")
	}
	if cfg.Dataset == nil {
		return nil, fmt.Errorf("online: fallback controller needs a dataset")
	}
	cfg.Watchdog = cfg.Watchdog.withDefaults()
	reg := obs.Or(cfg.Metrics)
	f := &FallbackController{
		cfg: cfg,
		primary: &Controller{
			Model: cfg.Primary, Dataset: cfg.Dataset, Base: cfg.Base,
			MaxTimeout: cfg.MaxTimeout, AnnealIter: cfg.AnnealIter,
			Seed: cfg.Seed, RetuneThreshold: cfg.RetuneThreshold,
			Metrics: cfg.Metrics, Breaker: cfg.Breaker, Clock: cfg.Clock,
			pure: cfg.Tiers == nil && !tiered(cfg.Primary),
		},
		fallback: &Controller{
			Model: cfg.Fallback, Dataset: cfg.Dataset, Base: cfg.Base,
			MaxTimeout: cfg.MaxTimeout, AnnealIter: cfg.AnnealIter,
			Seed: cfg.Seed ^ 0xa5a5a5a55a5a5a5a, RetuneThreshold: cfg.RetuneThreshold,
			Metrics: cfg.Metrics, Clock: cfg.Clock,
			pure: cfg.Tiers == nil && !tiered(cfg.Fallback),
		},
		active: NewWatchdog(cfg.Watchdog),
		probe:  NewWatchdog(cfg.Watchdog),
		m: fallbackMetrics{
			level:        reg.Gauge("mdsprint_online_level", "degradation level in force (0 hybrid, 1 noml, 2 static)"),
			demotions:    reg.Counter("mdsprint_online_demotions_total", "fallback-chain demotions (model health lost)"),
			promotions:   reg.Counter("mdsprint_online_promotions_total", "fallback-chain promotions (model health regained)"),
			residual:     reg.Histogram("mdsprint_online_residual", "active tier's |predicted-observed|/observed residual", 0),
			predictFails: reg.Counter("mdsprint_online_predict_failures_total", "model predictions that failed during health tracking"),
			staticHolds:  reg.Counter("mdsprint_online_static_decisions_total", "decisions served from the last-known-good static timeout"),

			decisions: reg.Counter("mdsprint_decision_total", "online timeout selections served"),
			tier: [3]*obs.Counter{
				reg.Counter("mdsprint_decision_tier_hybrid_total", "selections served by the hybrid tier"),
				reg.Counter("mdsprint_decision_tier_noml_total", "selections served by the no-ml tier"),
				reg.Counter("mdsprint_decision_tier_static_total", "selections served by the static last-known-good tier"),
			},
			decRetunes:    reg.Counter("mdsprint_decision_retunes_total", "selections that ran a fresh annealing search"),
			selectSeconds: reg.Histogram("mdsprint_decision_select_seconds", "wall-clock seconds per online selection", 0),
			searchSeconds: reg.Histogram("mdsprint_decision_search_seconds", "wall-clock seconds per annealing search inside a selection", 0),
		},
	}
	f.m.level.Set(float64(f.level))
	return f, nil
}

// Level returns the degradation level currently in force.
func (f *FallbackController) Level() Level { return f.level }

// Counts reports how many demotions and promotions have occurred.
func (f *FallbackController) Counts() (demotions, promotions int) {
	return f.demotions, f.promotions
}

// TimeoutCtx returns the sprint timeout for the estimated arrival rate,
// routed through the level currently in force. A failing search is
// itself a health signal: the controller demotes and retries down the
// chain before giving up. The selection is one "online.decide" span
// under ctx, with one "online.tier" child per tier attempt.
func (f *FallbackController) TimeoutCtx(ctx context.Context, rate float64) (float64, error) {
	sp := obs.StartSpanCtx(ctx, "online.decide")
	to, err := f.decide(sp, rate)
	sp.SetError(err)
	sp.End()
	return to, err
}

// decide is the selection body: route through the level in force,
// demoting on failure, then record the decision's provenance.
func (f *FallbackController) decide(sp *obs.Span, rate float64) (float64, error) {
	clk := obs.ClockOr(f.cfg.Clock)
	start := clk.Now()
	startLevel := f.level
	var estBefore tier.Stats
	if f.cfg.Tiers != nil {
		estBefore = f.cfg.Tiers.Stats()
	}
	to, info, err := f.timeoutAt(f.level, rate, sp)
	for err != nil && f.level < LevelStatic {
		f.demote()
		to, info, err = f.timeoutAt(f.level, rate, sp)
	}
	if err != nil {
		return 0, err
	}
	f.lastTO, f.lastRate, f.haveTO = to, rate, true

	rec := DecisionRecord{
		Rate:          rate,
		Timeout:       to,
		PredictedRT:   info.PredictedRT,
		Tier:          f.level.String(),
		Level:         int(f.level),
		Retuned:       info.Retuned,
		Demoted:       f.level > startLevel,
		BreakerState:  f.breakerState(),
		CacheHitRatio: sweep.Or(f.cfg.Engine).Stats().HitRate(),
		SelectNanos:   clk.Now().Sub(start).Nanoseconds(),
		SearchNanos:   info.SearchNanos,
	}
	if f.cfg.Tiers != nil {
		d := f.cfg.Tiers.Stats().Sub(estBefore)
		if dom, ok := d.Dominant(); ok {
			rec.EstTier = dom.String()
		}
		rec.EstQueries = int64(d.Answers)
		rec.EstCheap = int64(d.Analytic + d.Cache)
	}
	f.cfg.Ledger.Append(rec)
	f.m.decisions.Inc()
	f.m.tier[int(f.level)].Inc()
	if rec.Retuned {
		f.m.decRetunes.Inc()
	}
	f.m.selectSeconds.Observe(float64(rec.SelectNanos) / 1e9)
	if rec.SearchNanos > 0 {
		f.m.searchSeconds.Observe(float64(rec.SearchNanos) / 1e9)
	}
	sp.SetString("tier", rec.Tier)
	sp.SetFloat("timeout_s", to)
	sp.SetFloat("predicted_rt", rec.PredictedRT)
	sp.SetBool("retuned", rec.Retuned)
	sp.SetBool("demoted", rec.Demoted)
	sp.SetString("breaker", rec.BreakerState)
	if rec.EstTier != "" {
		sp.SetString("est_tier", rec.EstTier)
	}
	return to, nil
}

// breakerState names the primary-search breaker's position ("none"
// without a breaker).
func (f *FallbackController) breakerState() string {
	if f.cfg.Breaker == nil {
		return "none"
	}
	return f.cfg.Breaker.State().String()
}

// timeoutAt computes the decision one level would make, as one
// "online.tier" span under the selection.
func (f *FallbackController) timeoutAt(l Level, rate float64, parent *obs.Span) (float64, tierInfo, error) {
	sp := parent.StartChild("online.tier")
	sp.SetString("tier", l.String())
	ctx := obs.ContextWithSpan(context.Background(), sp)
	var to float64
	var info tierInfo
	var err error
	switch l {
	case LevelHybrid:
		to, info, err = f.primary.timeout(ctx, rate)
	case LevelNoML:
		to, info, err = f.fallback.timeout(ctx, rate)
	default:
		if f.haveGood {
			f.m.staticHolds.Inc()
			to = f.lastGoodTO
		} else {
			// Nothing banked: the chain bottomed out before any healthy
			// decision. The prediction-free tier is the only option left.
			to, info, err = f.fallback.timeout(ctx, rate)
		}
	}
	sp.SetError(err)
	sp.End()
	return to, info, err
}

// model returns the model backing a (non-static) level.
func (f *FallbackController) model(l Level) core.Model {
	if l == LevelHybrid {
		return f.cfg.Primary
	}
	return f.cfg.Fallback
}

// predictAt shadows a model's prediction for the decision in force.
func (f *FallbackController) predictAt(m core.Model, rate float64) (core.Prediction, error) {
	cond := f.cfg.Base
	cond.Timeout = f.lastTO
	return m.Predict(f.cfg.Dataset, core.Scenario{Cond: cond, ArrivalRate: rate})
}

// Observe feeds one observed mean response time (measured under the
// last Timeout decision, at the currently estimated rate) into the
// health watchdogs. This is where demotions and promotions happen.
func (f *FallbackController) Observe(rate, observed float64) {
	if !f.haveTO || rate <= 0 {
		return
	}
	// Health of the tier in control. The static tier has no model to
	// judge; its "health" is the probe below.
	if f.level != LevelStatic {
		pred, err := f.predictAt(f.model(f.level), rate)
		if err != nil {
			f.m.predictFails.Inc()
			f.active.ObserveFailure()
		} else {
			f.active.Observe(pred.MeanRT, observed)
			if observed > 0 {
				f.m.residual.Observe(pred.MeanRT/observed - 1)
			}
		}
		if f.active.ShouldDemote() {
			f.demote()
			return
		}
		// Bank the decision while the active model demonstrably tracks
		// reality: this is the timeout the static tier will hold.
		if f.active.Samples() >= f.cfg.Watchdog.MinSamples &&
			f.active.MeanResidual() < f.cfg.Watchdog.PromoteThreshold {
			f.lastGoodTO, f.haveGood = f.lastTO, true
		}
	}
	// Shadow the next-better tier; sustained health re-promotes one
	// level at a time.
	if f.level > LevelHybrid {
		better := f.model(f.level - 1)
		pred, err := f.predictAt(better, rate)
		if err != nil {
			f.m.predictFails.Inc()
			f.probe.ObserveFailure()
		} else {
			f.probe.Observe(pred.MeanRT, observed)
		}
		if f.probe.ShouldPromote() {
			f.promote()
		}
	}
}

// demote climbs one level down the chain and restarts the evidence
// windows.
func (f *FallbackController) demote() {
	if f.level >= LevelStatic {
		return
	}
	f.level++
	f.demotions++
	f.m.demotions.Inc()
	f.m.level.Set(float64(f.level))
	f.active.Reset()
	f.probe.Reset()
}

// promote climbs one level back up after sustained probe health.
func (f *FallbackController) promote() {
	if f.level <= LevelHybrid {
		return
	}
	f.level--
	f.promotions++
	f.m.promotions.Inc()
	f.m.level.Set(float64(f.level))
	f.active.Reset()
	f.probe.Reset()
}
