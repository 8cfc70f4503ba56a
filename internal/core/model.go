// Package core implements model-driven computational sprinting, the
// paper's contribution: performance models that map sprinting policies and
// workload conditions to expected response time, so policies can be
// compared without deploying them (Figure 2).
//
// Three models are provided behind one interface, mirroring Table 1(A):
//
//   - Hybrid — the paper's approach: workload profiling feeds an
//     effective-sprint-rate calibration (internal/calib); a random
//     decision forest (internal/forest) learns effective sprint rate from
//     conditions and policies; a timeout-aware queue simulator
//     (internal/queuesim) turns the effective rate into response time.
//   - NoML — the ablation: the queue simulator driven by the raw marginal
//     sprint rate, no machine learning.
//   - ANN — the direct-mapping baseline: a deep MLP from inputs straight
//     to response time.
package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"mdsprint/internal/ann"
	"mdsprint/internal/calib"
	"mdsprint/internal/dist"
	"mdsprint/internal/fault"
	"mdsprint/internal/forest"
	"mdsprint/internal/obs"
	"mdsprint/internal/profiler"
	"mdsprint/internal/queuesim"
	"mdsprint/internal/sweep"
	"mdsprint/internal/tier"
)

// Scenario is one prediction request: a sprinting policy plus workload
// conditions, expressed in the profiler's vocabulary.
type Scenario struct {
	Cond profiler.Condition
	// ArrivalRate in queries/second. Zero derives it from
	// Cond.Utilization and the dataset's measured service rate.
	ArrivalRate float64
}

// arrivalRate resolves the scenario's arrival rate against a dataset.
func (s Scenario) arrivalRate(ds *profiler.Dataset) float64 {
	if s.ArrivalRate > 0 {
		return s.ArrivalRate
	}
	return s.Cond.Utilization * ds.ServiceRate
}

// Prediction is a model's expected response-time answer.
type Prediction struct {
	MeanRT float64
	// P95RT and P99RT are populated by simulator-backed models (NaN
	// for the direct-mapping ANN).
	P95RT float64
	P99RT float64
	// SprintRate is the rate the simulator used (mu_e for Hybrid,
	// mu_m for NoML, 0 for ANN).
	SprintRate float64
}

// Model predicts response time for scenarios against a profiled dataset.
type Model interface {
	Name() string
	Predict(ds *profiler.Dataset, sc Scenario) (Prediction, error)
}

// CtxModel is a Model whose predictions honor a context — both for
// cancellation and for span tracing (the prediction's spans nest under
// the context's span). Simulator-backed models implement it.
type CtxModel interface {
	Model
	PredictCtx(ctx context.Context, ds *profiler.Dataset, sc Scenario) (Prediction, error)
}

// FeatureNames lists the predictive features shared by the forest and the
// ANN, in order. They are the paper's Figure 5 columns (lambda, mu, mu_m,
// budget, refill, timeout) plus normalised derivatives that help the
// learners generalise across workloads.
func FeatureNames() []string {
	return []string{
		"lambda_qps",
		"utilization",
		"mu_qps",
		"mum_qps",
		"marginal_speedup",
		"timeout_s",
		"timeout_services",
		"refill_s",
		"budget_pct",
		"budget_s",
		"arrival_pareto",
	}
}

// Features encodes a scenario against its dataset.
func Features(ds *profiler.Dataset, sc Scenario) []float64 {
	lambda := sc.arrivalRate(ds)
	mu := ds.ServiceRate
	mum := conditionMarginal(ds, sc.Cond)
	pareto := 0.0
	if sc.Cond.ArrivalKind == dist.KindPareto {
		pareto = 1
	}
	return []float64{
		lambda,
		lambda / mu,
		mu,
		mum,
		mum / mu,
		sc.Cond.Timeout,
		sc.Cond.Timeout * mu,
		sc.Cond.RefillTime,
		sc.Cond.BudgetPct,
		sc.Cond.BudgetPct * sc.Cond.RefillTime,
		pareto,
	}
}

// conditionMarginal mirrors calib's commanded-speedup clipping.
func conditionMarginal(ds *profiler.Dataset, cond profiler.Condition) float64 {
	mum := ds.MarginalRate
	if cond.Speedup > 0 {
		if cap := cond.Speedup * ds.ServiceRate; cap < mum {
			mum = cap
		}
	}
	return mum
}

// TrainingSet couples a profiled dataset with the observations used for
// training (typically the 80% split of its conditions).
type TrainingSet struct {
	Dataset      *profiler.Dataset
	Observations []profiler.Observation
}

// modelClock stamps prediction durations for modelMetrics. It is the
// injectable wall clock the determinism contract requires (see
// obs.Clock): swap in an obs.ManualClock under test to make measured
// regions reproducible. Prediction *results* never read it.
var modelClock = obs.ClockOr(nil)

// modelMetrics count model predictions in the default registry.
var modelMetrics = struct {
	predictions *obs.Counter
	seconds     *obs.Histogram
}{
	predictions: obs.Default().Counter("mdsprint_model_predictions_total", "simulator-backed model predictions served"),
	seconds:     obs.Default().Histogram("mdsprint_model_predict_seconds", "wall-clock seconds per model prediction", 0),
}

// simTask builds one sweep-engine task for a scenario at the given
// sprint rate, forwarding lifecycle events to tracer when non-nil (a
// tracer makes the task bypass the engine's memoization, so observed
// predictions always execute).
func simTask(ds *profiler.Dataset, sc Scenario, rate float64, queries, reps int, seed uint64, tracer obs.QueryTracer) (sweep.Task, error) {
	if len(ds.ServiceSamples) == 0 {
		return sweep.Task{}, fmt.Errorf("core: dataset %s/%s has no service samples", ds.MixName, ds.MechName)
	}
	return sweep.Task{
		Params: queuesim.Params{
			ArrivalRate:   sc.arrivalRate(ds),
			ArrivalKind:   sc.Cond.ArrivalKind,
			Service:       ds.ServiceDist(),
			ServiceRate:   ds.ServiceRate,
			SprintRate:    rate,
			Timeout:       sc.Cond.Timeout,
			BudgetSeconds: sc.Cond.Policy().BudgetSeconds,
			RefillTime:    sc.Cond.RefillTime,
			NumQueries:    queries,
			Warmup:        queries / 10,
			Seed:          seed,
			Tracer:        tracer,
		},
		Reps: reps,
	}, nil
}

// toPrediction converts the simulator's pooled prediction.
func toPrediction(p queuesim.Prediction, rate float64) Prediction {
	return Prediction{
		MeanRT:     p.MeanRT,
		P95RT:      p.P95RT,
		P99RT:      p.P99RT,
		SprintRate: rate,
	}
}

// simulate evaluates one scenario through the sweep engine — or, when
// est is non-nil, through the staged tier estimator, which serves the
// cheapest tier whose error bound suffices and annotates the span with
// the tier that answered. The prediction is one "core.predict" span
// (nested under the context's span, or a root on the active tracer)
// with the sweep evaluation as its child.
func simulate(ctx context.Context, e *sweep.Engine, est *tier.Estimator, ds *profiler.Dataset, sc Scenario, rate float64, queries, reps int, seed uint64, tracer obs.QueryTracer) (Prediction, error) {
	t, err := simTask(ds, sc, rate, queries, reps, seed, tracer)
	if err != nil {
		return Prediction{}, err
	}
	sp := obs.StartSpanCtx(ctx, "core.predict")
	sp.SetFloat("sprint_rate", rate)
	sp.SetFloat("timeout_s", sc.Cond.Timeout)
	start := modelClock.Now()
	var pred queuesim.Prediction
	if est != nil {
		var dec tier.Decision
		pred, dec, err = est.Estimate(t)
		sp.SetString("tier", dec.Tier.String())
		sp.SetFloat("tier_err_estimate", dec.ErrEstimate)
	} else {
		pred, err = sweep.Or(e).EvaluateSpan(sp, t)
	}
	sp.SetError(err)
	sp.End()
	if err != nil {
		return Prediction{}, err
	}
	modelMetrics.predictions.Inc()
	modelMetrics.seconds.Observe(modelClock.Now().Sub(start).Seconds())
	return toPrediction(pred, rate), nil
}

// simulateAll evaluates a batch of scenarios at per-scenario sprint
// rates, sharded across the engine's workers with results in scenario
// order — or through the tier estimator's batched three-pass path when
// est is non-nil. The batch is one "core.predict_batch" span with the
// sweep batch (and its per-task cache annotations) nested under it; the
// tiered path annotates how many answers the cheap tiers absorbed.
func simulateAll(ctx context.Context, e *sweep.Engine, est *tier.Estimator, ds *profiler.Dataset, scs []Scenario, rates []float64, queries, reps int, seed uint64, tracer obs.QueryTracer) ([]Prediction, error) {
	tasks := make([]sweep.Task, len(scs))
	for i, sc := range scs {
		t, err := simTask(ds, sc, rates[i], queries, reps, seed, tracer)
		if err != nil {
			return nil, err
		}
		tasks[i] = t
	}
	sp := obs.StartSpanCtx(ctx, "core.predict_batch")
	sp.SetInt("scenarios", int64(len(scs)))
	start := modelClock.Now()
	var preds []queuesim.Prediction
	var err error
	if est != nil {
		var decs []tier.Decision
		preds, decs, err = est.EstimateAll(tasks)
		cheap := int64(0)
		for _, d := range decs {
			if d.Tier == tier.TierAnalytic || d.Tier == tier.TierCache {
				cheap++
			}
		}
		sp.SetInt("tier_cheap", cheap)
	} else {
		preds, err = sweep.Or(e).EvaluateAllCtx(obs.ContextWithSpan(ctx, sp), tasks)
	}
	sp.SetError(err)
	sp.End()
	if err != nil {
		return nil, err
	}
	modelMetrics.predictions.Add(float64(len(scs)))
	modelMetrics.seconds.Observe(modelClock.Now().Sub(start).Seconds())
	out := make([]Prediction, len(preds))
	for i, p := range preds {
		out[i] = toPrediction(p, rates[i])
	}
	return out, nil
}

// engineFor resolves a model's evaluation engine: an explicit engine
// wins; a legacy Workers hint gets a dedicated pool of that size;
// otherwise the process-shared engine serves.
func engineFor(e *sweep.Engine, workers int) *sweep.Engine {
	if e != nil {
		return e
	}
	if workers > 0 {
		return sweep.New(sweep.Options{Workers: workers})
	}
	return sweep.Shared()
}

// Evaluation compares a model's predictions to held-out observations.
type Evaluation struct {
	Predicted []float64
	Observed  []float64
	Errors    []float64
}

// BatchModel is a Model that can score many scenarios in one call —
// simulator-backed models implement it by handing the batch to the sweep
// engine, which shards the evaluations and memoizes repeats.
type BatchModel interface {
	Model
	PredictAll(ds *profiler.Dataset, scs []Scenario) ([]Prediction, error)
}

// BatchCtxModel is a BatchModel whose batch predictions honor a context
// (cancellation and span tracing).
type BatchCtxModel interface {
	BatchModel
	PredictAllCtx(ctx context.Context, ds *profiler.Dataset, scs []Scenario) ([]Prediction, error)
}

// Evaluate predicts every observation's condition and collects absolute
// relative errors, the metric of Figures 7-10. Models implementing
// BatchModel are scored as one sweep; others fall back to serial
// Predict calls (the two paths are bit-identical — see the sweep
// engine's determinism contract).
func Evaluate(m Model, ds *profiler.Dataset, obs []profiler.Observation) (Evaluation, error) {
	return EvaluateCtx(context.Background(), m, ds, obs)
}

// EvaluateCtx is Evaluate honoring cancellation and span tracing: the
// whole evaluation is one "core.evaluate" span, and context-aware
// models nest their prediction spans under it.
func EvaluateCtx(ctx context.Context, m Model, ds *profiler.Dataset, observations []profiler.Observation) (Evaluation, error) {
	sp := obs.StartSpanCtx(ctx, "core.evaluate")
	sp.SetString("model", m.Name())
	sp.SetInt("observations", int64(len(observations)))
	ctx = obs.ContextWithSpan(ctx, sp)
	ev, err := evaluate(ctx, m, ds, observations)
	sp.SetError(err)
	sp.End()
	return ev, err
}

// evaluate is EvaluateCtx's body.
func evaluate(ctx context.Context, m Model, ds *profiler.Dataset, obs []profiler.Observation) (Evaluation, error) {
	ev := Evaluation{
		Predicted: make([]float64, 0, len(obs)),
		Observed:  make([]float64, 0, len(obs)),
		Errors:    make([]float64, 0, len(obs)),
	}
	preds := make([]Prediction, 0, len(obs))
	if bm, ok := m.(BatchModel); ok {
		scs := make([]Scenario, len(obs))
		for i, o := range obs {
			scs[i] = Scenario{Cond: o.Cond, ArrivalRate: o.ArrivalRate}
		}
		var batch []Prediction
		var err error
		if bcm, ok := bm.(BatchCtxModel); ok {
			batch, err = bcm.PredictAllCtx(ctx, ds, scs)
		} else {
			batch, err = bm.PredictAll(ds, scs)
		}
		if err != nil {
			return Evaluation{}, fmt.Errorf("core: evaluating batch: %w", err)
		}
		preds = batch
	} else {
		for _, o := range obs {
			var pred Prediction
			var err error
			if cm, ok := m.(CtxModel); ok {
				pred, err = cm.PredictCtx(ctx, ds, Scenario{Cond: o.Cond, ArrivalRate: o.ArrivalRate})
			} else {
				pred, err = m.Predict(ds, Scenario{Cond: o.Cond, ArrivalRate: o.ArrivalRate})
			}
			if err != nil {
				return Evaluation{}, fmt.Errorf("core: evaluating %s: %w", o.Cond, err)
			}
			preds = append(preds, pred)
		}
	}
	for i, o := range obs {
		ev.Predicted = append(ev.Predicted, preds[i].MeanRT)
		ev.Observed = append(ev.Observed, o.MeanRT)
		ev.Errors = append(ev.Errors, math.Abs(preds[i].MeanRT-o.MeanRT)/o.MeanRT)
	}
	return ev, nil
}

// annFeaturesAndTargets flattens training sets into the ANN's direct
// input-to-response-time form.
func annFeaturesAndTargets(sets []TrainingSet) ([][]float64, []float64) {
	var X [][]float64
	var Y []float64
	for _, set := range sets {
		for _, o := range set.Observations {
			X = append(X, Features(set.Dataset, Scenario{Cond: o.Cond, ArrivalRate: o.ArrivalRate}))
			Y = append(Y, o.MeanRT)
		}
	}
	return X, Y
}

// ANN is the direct-mapping baseline model.
type ANN struct {
	net *ann.Network
}

// TrainANN fits the Table 1(A) baseline on the training sets.
func TrainANN(sets []TrainingSet, cfg ann.Config) (*ANN, error) {
	X, Y := annFeaturesAndTargets(sets)
	if len(X) == 0 {
		return nil, fmt.Errorf("core: no ANN training observations")
	}
	net, err := ann.Train(X, Y, cfg)
	if err != nil {
		return nil, err
	}
	return &ANN{net: net}, nil
}

func (a *ANN) Name() string { return "ANN" }

// Predict maps the scenario's features straight to mean response time.
func (a *ANN) Predict(ds *profiler.Dataset, sc Scenario) (Prediction, error) {
	rt := a.net.Predict(Features(ds, sc))
	if rt < 0 {
		rt = 0
	}
	return Prediction{MeanRT: rt, P95RT: math.NaN(), P99RT: math.NaN()}, nil
}

// NoML is the simulator-only ablation: marginal sprint rate in, response
// time out, no learning.
type NoML struct {
	// SimQueries and SimReps size each prediction (defaults 4000/2).
	SimQueries int
	SimReps    int
	// Workers sizes a dedicated evaluation pool when Engine is nil;
	// zero shares the process-wide sweep engine.
	Workers int
	Seed    uint64
	// Engine evaluates (and memoizes) the prediction simulations; nil
	// resolves per Workers above.
	Engine *sweep.Engine
	// Tiers, when non-nil, answers predictions with the cheapest
	// sufficient tier (analytic closed form, sweep-cache hit, short
	// replications) instead of always simulating; it supersedes Engine
	// for answering, using its own engine for the simulation tiers.
	Tiers *tier.Estimator
	// Tracer forwards the prediction simulations' lifecycle events
	// (and disables memoization for them).
	Tracer obs.QueryTracer

	engineOnce sync.Once
	engine     *sweep.Engine
}

func (n *NoML) Name() string { return "No-ML" }

func (n *NoML) resolveEngine() *sweep.Engine {
	n.engineOnce.Do(func() { n.engine = engineFor(n.Engine, n.Workers) })
	return n.engine
}

func (n *NoML) simSizes() (queries, reps int) {
	queries, reps = n.SimQueries, n.SimReps
	if queries == 0 {
		queries = 4000
	}
	if reps == 0 {
		reps = 2
	}
	return queries, reps
}

func (n *NoML) Predict(ds *profiler.Dataset, sc Scenario) (Prediction, error) {
	return n.PredictCtx(context.Background(), ds, sc)
}

// PredictCtx is Predict honoring cancellation and span tracing.
func (n *NoML) PredictCtx(ctx context.Context, ds *profiler.Dataset, sc Scenario) (Prediction, error) {
	queries, reps := n.simSizes()
	return simulate(ctx, n.resolveEngine(), n.Tiers, ds, sc, conditionMarginal(ds, sc.Cond), queries, reps, n.Seed, n.Tracer)
}

// PredictAll scores a batch of scenarios as one sweep.
func (n *NoML) PredictAll(ds *profiler.Dataset, scs []Scenario) ([]Prediction, error) {
	return n.PredictAllCtx(context.Background(), ds, scs)
}

// PredictAllCtx is PredictAll honoring cancellation and span tracing.
func (n *NoML) PredictAllCtx(ctx context.Context, ds *profiler.Dataset, scs []Scenario) ([]Prediction, error) {
	queries, reps := n.simSizes()
	rates := make([]float64, len(scs))
	for i, sc := range scs {
		rates[i] = conditionMarginal(ds, sc.Cond)
	}
	return simulateAll(ctx, n.resolveEngine(), n.Tiers, ds, scs, rates, queries, reps, n.Seed, n.Tracer)
}

// ensure interface conformance.
var (
	_ Model      = (*ANN)(nil)
	_ BatchModel = (*NoML)(nil)
	_ BatchModel = (*Hybrid)(nil)
)

// Hybrid is the paper's model. See package documentation.
type Hybrid struct {
	forest *forest.Forest
	// records retains the calibrated training rows for inspection.
	records []calib.Record

	simQueries int
	simReps    int
	seed       uint64
	engine     *sweep.Engine
	tiers      *tier.Estimator
	tracer     obs.QueryTracer
}

// HybridOptions tunes hybrid training and prediction.
type HybridOptions struct {
	Forest forest.Config
	Calib  calib.Options
	// SimQueries and SimReps size each prediction (defaults 4000/2).
	SimQueries int
	SimReps    int
	// Workers sizes a dedicated evaluation pool when Engine is nil;
	// zero shares the process-wide sweep engine.
	Workers int
	Seed    uint64
	// Engine evaluates (and memoizes) prediction simulations; it is
	// also threaded into Calib when Calib.Engine is unset, so training
	// and prediction share one memoization pool.
	Engine *sweep.Engine
	// Metrics receives calibration progress (threaded into Calib when
	// Calib.Metrics is unset); Tracer receives prediction lifecycle
	// events. Both may be nil.
	Metrics *obs.Registry
	Tracer  obs.QueryTracer
	// Breaker circuit-breaks the calibration searches (threaded into
	// Calib when Calib.Breaker is unset): consecutive divergent mu_e
	// fits trip it and later records degrade to mu_m instead of burning
	// simulator time on a misbehaving profile. May be nil.
	Breaker *fault.Breaker
	// Tiers, when non-nil, answers the trained model's predictions with
	// the cheapest sufficient tier instead of always simulating (see
	// NoML.Tiers). Training/calibration is unaffected.
	Tiers *tier.Estimator
}

// TrainHybrid calibrates effective sprint rates for every training
// observation and fits the random decision forest on them.
func TrainHybrid(sets []TrainingSet, o HybridOptions) (*Hybrid, error) {
	return TrainHybridCtx(context.Background(), sets, o)
}

// TrainHybridCtx is TrainHybrid honoring cancellation and span tracing:
// training is one "core.train_hybrid" span with each dataset's
// calibration (and its per-record searches) and the forest fit nested
// under it.
func TrainHybridCtx(ctx context.Context, sets []TrainingSet, o HybridOptions) (h *Hybrid, err error) {
	sp := obs.StartSpanCtx(ctx, "core.train_hybrid")
	sp.SetInt("training_sets", int64(len(sets)))
	ctx = obs.ContextWithSpan(ctx, sp)
	defer func() {
		sp.SetError(err)
		sp.End()
	}()
	if len(sets) == 0 {
		return nil, fmt.Errorf("core: no training sets")
	}
	copts := o.Calib
	if copts.Metrics == nil {
		copts.Metrics = o.Metrics
	}
	if copts.Engine == nil {
		copts.Engine = o.Engine
	}
	if copts.Breaker == nil {
		copts.Breaker = o.Breaker
	}
	var samples []forest.Sample
	var records []calib.Record
	for _, set := range sets {
		recs, err := calib.CalibrateDatasetCtx(ctx, set.Dataset, set.Observations, copts)
		if err != nil {
			return nil, err
		}
		for i, rec := range recs {
			obs := set.Observations[i]
			samples = append(samples, forest.Sample{
				Features: Features(set.Dataset, Scenario{Cond: obs.Cond, ArrivalRate: obs.ArrivalRate}),
				X:        rec.MarginalRate,
				Y:        rec.EffectiveRate,
			})
		}
		records = append(records, recs...)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("core: no training observations")
	}
	fcfg := o.Forest
	if fcfg.Seed == 0 {
		fcfg.Seed = o.Seed + 1
	}
	fsp := sp.StartChild("forest.train")
	fsp.SetInt("samples", int64(len(samples)))
	f, err := forest.Train(samples, FeatureNames(), fcfg)
	fsp.SetError(err)
	fsp.End()
	if err != nil {
		return nil, err
	}
	h = &Hybrid{
		forest:     f,
		records:    records,
		simQueries: o.SimQueries,
		simReps:    o.SimReps,
		seed:       o.Seed,
		engine:     engineFor(o.Engine, o.Workers),
		tiers:      o.Tiers,
		tracer:     o.Tracer,
	}
	if h.simQueries == 0 {
		h.simQueries = 4000
	}
	if h.simReps == 0 {
		h.simReps = 2
	}
	return h, nil
}

// NewHybridFromForest assembles a hybrid model around a pre-trained
// forest — the ablation path for comparing forest configurations end to
// end without re-running calibration.
func NewHybridFromForest(f *forest.Forest, simQueries, simReps, workers int, seed uint64) *Hybrid {
	if simQueries == 0 {
		simQueries = 4000
	}
	if simReps == 0 {
		simReps = 2
	}
	return &Hybrid{forest: f, simQueries: simQueries, simReps: simReps, seed: seed, engine: engineFor(nil, workers)}
}

func (h *Hybrid) Name() string { return "Hybrid" }

// EffectiveRate returns the forest's mu_e estimate for a scenario,
// clamped to the physically sensible band [0.5*mu, 3*mu_m]. The band
// extends below the service rate because congested toggling can make
// sprints net-negative (Section 2.3's runtime factors).
func (h *Hybrid) EffectiveRate(ds *profiler.Dataset, sc Scenario) float64 {
	mum := conditionMarginal(ds, sc.Cond)
	rate := h.forest.Predict(Features(ds, sc), mum)
	if min := 0.5 * ds.ServiceRate; rate < min {
		rate = min
	}
	if max := 3 * mum; rate > max {
		rate = max
	}
	return rate
}

// Predict runs the Figure 2 pipeline: features -> forest -> effective
// sprint rate -> timeout-aware queue simulation -> response time.
func (h *Hybrid) Predict(ds *profiler.Dataset, sc Scenario) (Prediction, error) {
	return h.PredictCtx(context.Background(), ds, sc)
}

// PredictCtx is Predict honoring cancellation and span tracing.
func (h *Hybrid) PredictCtx(ctx context.Context, ds *profiler.Dataset, sc Scenario) (Prediction, error) {
	return simulate(ctx, h.engine, h.tiers, ds, sc, h.EffectiveRate(ds, sc), h.simQueries, h.simReps, h.seed, h.tracer)
}

// PredictAll runs the pipeline for a batch of scenarios as one sweep:
// the forest prices every scenario's effective rate up front, then the
// engine shards (and memoizes) the queue simulations.
func (h *Hybrid) PredictAll(ds *profiler.Dataset, scs []Scenario) ([]Prediction, error) {
	return h.PredictAllCtx(context.Background(), ds, scs)
}

// PredictAllCtx is PredictAll honoring cancellation and span tracing.
func (h *Hybrid) PredictAllCtx(ctx context.Context, ds *profiler.Dataset, scs []Scenario) ([]Prediction, error) {
	rates := make([]float64, len(scs))
	for i, sc := range scs {
		rates[i] = h.EffectiveRate(ds, sc)
	}
	return simulateAll(ctx, h.engine, h.tiers, ds, scs, rates, h.simQueries, h.simReps, h.seed, h.tracer)
}

// Records exposes the calibrated training rows (for diagnostics and the
// experiment harness).
func (h *Hybrid) Records() []calib.Record { return h.records }

// Importances exposes the forest's feature importances.
func (h *Hybrid) Importances() []forest.Importance { return h.forest.Importances() }
