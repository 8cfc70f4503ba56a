package main

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"time"

	"mdsprint/internal/calib"
	"mdsprint/internal/core"
	"mdsprint/internal/dist"
	"mdsprint/internal/explore"
	"mdsprint/internal/forest"
	"mdsprint/internal/mech"
	"mdsprint/internal/obs"
	"mdsprint/internal/online"
	"mdsprint/internal/profiler"
	"mdsprint/internal/stats"
	"mdsprint/internal/trace"
	"mdsprint/internal/workload"
)

// pipelineScale sizes one pipeline iteration.
type pipelineScale struct {
	conditions   int // PaperGrid conditions profiled
	queries      int // queries per profiling replay
	calibQueries int // queries per calibration simulation
	trees        int // forest size
	simQueries   int // queries per model prediction
	annealIter   int // explore-stage annealing iterations
	decides      int // online decisions
	onlineIter   int // annealing iterations per online retune
}

// At full scale profiling, calibration and the model predictions of the
// sweep, explore and online stages each carry a visible share of an
// iteration, so a change to any of them moves iteration time.
var pipelineScales = map[string]pipelineScale{
	"full":  {conditions: 80, queries: 1500, calibQueries: 1500, trees: 5, simQueries: 2000, annealIter: 40, decides: 8, onlineIter: 12},
	"smoke": {conditions: 12, queries: 300, calibQueries: 300, trees: 3, simQueries: 400, annealIter: 10, decides: 4, onlineIter: 6},
}

// The pipeline profiles Jacobi on DVFS and tunes the timeout of this
// base policy, as `sprintctl pipeline` does.
var (
	pipelineMix   = workload.SingleClass(workload.MustByName("Jacobi"))
	pipelineBase  = profiler.Condition{Utilization: 0.75, ArrivalKind: dist.KindExponential, RefillTime: 200, BudgetPct: 0.25}
	sweepTimeouts = []float64{20, 60, 120}
)

const (
	pipelineMaxTimeout = 300
	// pipelineSetupReps is how many set-up iterations a run makes;
	// setup_s is the median of their times.
	pipelineSetupReps = 5
	// warmSeed is the first seed of the set-up iterations, whose digest
	// is pinned. It sits far from any seed+i a run measures with, so
	// measured iterations never hit the set-up's memoized simulations.
	warmSeed uint64 = 1 << 48
)

// hybridOptions configures the hybrid model of the iteration with the
// given seed. The decomposed path in runIteration and the reference
// core.TrainHybridCtx path both read it.
func hybridOptions(sc pipelineScale, seed uint64) core.HybridOptions {
	return core.HybridOptions{
		Forest:     forest.Config{Trees: sc.trees, FeatureFrac: 0.9, Seed: seed + 7},
		Calib:      calib.Options{NumQueries: sc.calibQueries, Replications: 1, Tolerance: 0.05, Seed: seed + 101},
		SimQueries: sc.simQueries, SimReps: 1, Seed: seed + 13,
	}
}

// iterOutcome is what one pipeline iteration produced.
type iterOutcome struct {
	digest       uint64
	ds           *profiler.Dataset
	hybrid       *core.Hybrid
	exploreEvals int
	problems     []string // violated output invariants
}

// runIteration runs profile → calibrate → train → sweep → anneal →
// decide once. Every call into a layer is a child span of root (all
// spans are nil, and free, when root is nil). The spans live on the
// benchmark's own tracer only: the program's contexts never carry them,
// so the program's internal spans stay off.
func runIteration(ctx context.Context, sc pipelineScale, seed uint64, root *obs.Span) (iterOutcome, error) {
	o := hybridOptions(sc, seed)

	sp := root.StartChild("profiler.profile")
	prof := &profiler.Profiler{Mix: pipelineMix, Mechanism: mech.DVFS{}, QueriesPerRun: sc.queries, Replications: 1, Seed: seed}
	ds := prof.Profile(profiler.PaperGrid().Sample(sc.conditions, seed+3))
	sp.End()

	sp = root.StartChild("calib.calibrate")
	recs, err := calib.CalibrateDatasetCtx(ctx, ds, ds.Observations, o.Calib)
	sp.End()
	if err != nil {
		return iterOutcome{}, err
	}

	sp = root.StartChild("core.features")
	samples := make([]forest.Sample, len(recs))
	for i, rec := range recs {
		ob := ds.Observations[i]
		samples[i] = forest.Sample{
			Features: core.Features(ds, core.Scenario{Cond: ob.Cond, ArrivalRate: ob.ArrivalRate}),
			X:        rec.MarginalRate,
			Y:        rec.EffectiveRate,
		}
	}
	sp.End()

	sp = root.StartChild("forest.train")
	f, err := forest.Train(samples, core.FeatureNames(), o.Forest)
	sp.End()
	if err != nil {
		return iterOutcome{}, err
	}

	sp = root.StartChild("core.build")
	h := core.NewHybridFromForest(f, o.SimQueries, o.SimReps, o.Workers, o.Seed)
	sp.End()

	out := iterOutcome{ds: ds, hybrid: h}
	check := func(ok bool, format string, args ...any) {
		if !ok {
			out.problems = append(out.problems, fmt.Sprintf(format, args...))
		}
	}
	digest := fnvOffset

	// Sweep: the second pass re-scores the same batch, all memo hits.
	for pass := 0; pass < 2; pass++ {
		sp = root.StartChild("core.predict")
		preds, err := h.PredictAllCtx(ctx, ds, baseScenarios(sweepTimeouts))
		sp.End()
		if err != nil {
			return iterOutcome{}, fmt.Errorf("sweep pass %d: %w", pass, err)
		}
		for _, p := range preds {
			check(p.MeanRT > 0 && !math.IsInf(p.MeanRT, 0), "sweep predicted mean RT %v", p.MeanRT)
			digest = fnvWord(digest, math.Float64bits(p.MeanRT))
		}
	}

	esp := root.StartChild("explore.minimize")
	res, err := explore.MinimizeTimeoutBatchCtx(ctx, func(timeouts []float64) ([]float64, error) {
		sp := esp.StartChild("core.predict")
		defer sp.End()
		preds, err := h.PredictAllCtx(ctx, ds, baseScenarios(timeouts))
		if err != nil {
			return nil, err
		}
		rts := make([]float64, len(preds))
		for i, p := range preds {
			rts[i] = p.MeanRT
		}
		return rts, nil
	}, 0, pipelineMaxTimeout, explore.BatchOptions{Options: explore.Options{MaxIter: sc.annealIter, Seed: seed}})
	esp.End()
	if err != nil {
		return iterOutcome{}, fmt.Errorf("explore: %w", err)
	}
	out.exploreEvals = res.Evaluations
	check(res.Point[0] >= 0 && res.Point[0] <= pipelineMaxTimeout, "explored timeout %v outside [0, %d]", res.Point[0], pipelineMaxTimeout)
	digest = fnvWord(fnvWord(digest, math.Float64bits(res.Point[0])), math.Float64bits(res.RT))

	// Online: every decision drifts ±25% from the base rate, past the
	// retune threshold, so each one re-runs the search.
	osp := root.StartChild("online.control")
	ledger := online.NewDecisionLedger()
	fc, err := online.NewFallbackController(online.FallbackConfig{
		Primary:    &timedModel{CtxModel: h, parent: osp},
		Fallback:   &timedModel{CtxModel: &core.NoML{SimQueries: sc.simQueries, SimReps: 1, Seed: seed + 17}, parent: osp},
		Dataset:    ds,
		Base:       pipelineBase,
		MaxTimeout: pipelineMaxTimeout,
		AnnealIter: sc.onlineIter,
		Seed:       seed,
		Ledger:     ledger,
	})
	if err != nil {
		osp.End()
		return iterOutcome{}, err
	}
	baseRate := pipelineBase.Utilization * ds.ServiceRate
	for i := 0; i < sc.decides; i++ {
		drift := 0.25
		if i%2 == 1 {
			drift = -0.25
		}
		to, err := fc.TimeoutCtx(ctx, baseRate*(1+drift))
		if err != nil {
			osp.End()
			return iterOutcome{}, fmt.Errorf("online decision %d: %w", i, err)
		}
		check(to >= 0 && to <= pipelineMaxTimeout, "online timeout %v outside [0, %d]", to, pipelineMaxTimeout)
	}
	osp.End()
	demotions, _ := fc.Counts()
	check(demotions == 0 && fc.Level() == online.LevelHybrid, "online controller demoted %d time(s), serving %s", demotions, fc.Level())
	check(ledger.Len() == sc.decides, "ledger holds %d decisions, want %d", ledger.Len(), sc.decides)
	chain, err := strconv.ParseUint(ledger.Chain(), 16, 64)
	if err != nil {
		return iterOutcome{}, fmt.Errorf("ledger chain: %w", err)
	}
	out.digest = fnvWord(digest, chain)
	return out, nil
}

// baseScenarios returns the base policy at each timeout.
func baseScenarios(timeouts []float64) []core.Scenario {
	scs := make([]core.Scenario, len(timeouts))
	for i, to := range timeouts {
		cond := pipelineBase
		cond.Timeout = to
		scs[i] = core.Scenario{Cond: cond}
	}
	return scs
}

// timedModel is the online controller's view of a model: each
// prediction is a core.predict span under the online stage's span, so
// online.self_s is the controller's own time.
type timedModel struct {
	core.CtxModel
	parent *obs.Span
}

// Predict implements core.Model.
func (m *timedModel) Predict(ds *profiler.Dataset, sc core.Scenario) (core.Prediction, error) {
	return m.PredictCtx(context.Background(), ds, sc)
}

// PredictCtx implements core.CtxModel.
func (m *timedModel) PredictCtx(ctx context.Context, ds *profiler.Dataset, sc core.Scenario) (core.Prediction, error) {
	sp := m.parent.StartChild("core.predict")
	defer sp.End()
	return m.CtxModel.PredictCtx(ctx, ds, sc)
}

// checkDecomposed verifies that the hybrid model runIteration assembles
// from calib, forest and core.NewHybridFromForest is the model
// core.TrainHybridCtx trains from the same dataset: equal effective
// rates on every training observation and bit-identical predictions on
// the sweep grid. The benchmark then measures the program users run.
func checkDecomposed(ctx context.Context, sc pipelineScale, seed uint64, out iterOutcome) error {
	ds := out.ds
	ref, err := core.TrainHybridCtx(ctx, []core.TrainingSet{{Dataset: ds, Observations: ds.Observations}}, hybridOptions(sc, seed))
	if err != nil {
		return fmt.Errorf("reference training: %w", err)
	}
	for _, ob := range ds.Observations {
		s := core.Scenario{Cond: ob.Cond, ArrivalRate: ob.ArrivalRate}
		if a, b := out.hybrid.EffectiveRate(ds, s), ref.EffectiveRate(ds, s); math.Float64bits(a) != math.Float64bits(b) {
			return fmt.Errorf("effective rate at %s: decomposed %v, TrainHybridCtx %v", ob.Cond, a, b)
		}
	}
	grid := baseScenarios(sweepTimeouts)
	got, err := out.hybrid.PredictAllCtx(ctx, ds, grid)
	if err != nil {
		return err
	}
	want, err := ref.PredictAllCtx(ctx, ds, grid)
	if err != nil {
		return err
	}
	for i := range grid {
		if math.Float64bits(got[i].MeanRT) != math.Float64bits(want[i].MeanRT) {
			return fmt.Errorf("prediction at timeout %v: decomposed %v, TrainHybridCtx %v", sweepTimeouts[i], got[i].MeanRT, want[i].MeanRT)
		}
	}
	return nil
}

// pipelineSetup runs the set-up iterations, each followed by the host
// probe, and returns their wall times and folded digest, and the last
// one's outcome.
func pipelineSetup(ctx context.Context, sc pipelineScale, probe *hostProbe) (walls []float64, digest uint64, last iterOutcome, err error) {
	digest = fnvOffset
	for k := 0; k < pipelineSetupReps; k++ {
		start := time.Now()
		last, err = runIteration(ctx, sc, warmSeed+uint64(k), nil)
		wall := time.Since(start).Seconds()
		if err != nil {
			return nil, 0, iterOutcome{}, fmt.Errorf("set-up iteration %d: %w", k, err)
		}
		if len(last.problems) > 0 {
			return nil, 0, iterOutcome{}, fmt.Errorf("set-up iteration %d: %v", k, last.problems)
		}
		if err := probe.measure(); err != nil {
			return nil, 0, iterOutcome{}, err
		}
		walls = append(walls, wall)
		digest = fnvWord(digest, last.digest)
	}
	return walls, digest, last, nil
}

// runPipeline is the pipeline workload: set up, then run iterations with
// seeds seed, seed+1, ... until the measured time is spent, each one
// followed by the host probe. A traced run traces the even iterations and
// leaves the odd ones plain, so tracing overhead is measured inside one
// process.
func runPipeline(ctx context.Context, c config) (*Result, error) {
	sc := pipelineScales[c.scale]
	r := newResult(c.traced)
	probe := newSimProbe()

	setups, digest, last, err := pipelineSetup(ctx, sc, probe)
	if err != nil {
		return nil, err
	}
	checkPin(r, c.log, "pipeline/"+c.scale, digest)
	if err := checkDecomposed(ctx, sc, warmSeed+pipelineSetupReps-1, last); err != nil {
		r.fail(c.log, "%v", err)
	}

	var tr *obs.SpanTracer
	if c.traced {
		tr = obs.NewSpanTracer(obs.SpanOptions{})
	}
	var plain, traced []float64 // iteration wall seconds
	self := map[string]float64{}
	var rootSeconds float64
	var kept []obs.SpanData
	exploreEvals := 0
	setupFactor := probe.endPhase()
	before, reg0 := readUsage(), mustScrape(obs.Default())
	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		var root *obs.Span
		if c.traced && i%2 == 0 {
			root = tr.StartSpan("bench.iteration")
		}
		t0 := time.Now()
		out, err := runIteration(ctx, sc, c.seed+uint64(i), root)
		wall := time.Since(t0).Seconds()
		root.End()
		r.Attempted++
		exploreEvals += out.exploreEvals
		if err == nil && len(out.problems) > 0 {
			err = fmt.Errorf("%v", out.problems)
		}
		if err != nil {
			r.Failed++
			fmt.Fprintf(c.log, "sprintbench: iteration %d (seed %d) failed: %v\n", i, c.seed+uint64(i), err)
		}
		if err := probe.measure(); err != nil {
			return nil, err
		}
		if root == nil {
			plain = append(plain, wall)
			continue
		}
		traced = append(traced, wall)
		spans := tr.Drain()
		for layer, s := range selfByLayer(spans) {
			self[layer] += s
		}
		for _, s := range spans {
			if s.Parent == 0 {
				rootSeconds += float64(s.EndNS-s.StartNS) / 1e9
			}
		}
		if c.traceOut != "" {
			kept = append(kept, spans...)
		}
	}
	used, reg1 := readUsage().sub(before).sub(probe.used), mustScrape(obs.Default())

	if !c.traced {
		// p75 is the highest quantile with at least ten of a full-length
		// run's iterations beyond it.
		return r, r.setEndToEnd(c.log, endToEnd{
			setups: setups, setupFactor: setupFactor,
			p50: stats.Median(plain), tail: stats.Quantile(plain, 0.75),
			opsPerSec: 1 / stats.Mean(plain), factor: probe.endPhase(),
			ops: r.Attempted, used: used,
		})
	}
	r.setCounters(reg1.sub(reg0), r.Attempted)
	r.setRuntime(used, r.Attempted)
	n := float64(len(traced))
	r.set("profiler.self_s", self["profiler"]/n)
	r.set("calib.self_s", self["calib"]/n)
	r.set("forest.self_s", self["forest"]/n)
	r.set("core.predict_s", self["core"]/n)
	r.set("explore.self_s", self["explore"]/n)
	r.set("online.self_s", self["online"]/n)
	r.set("core.predict_us_per_scenario", 1e6*ratio(self["core"]/n, r.Metrics["core.predictions"].Value))
	r.set("explore.evals", float64(exploreEvals)/float64(r.Attempted))
	r.set("bench.glue_frac", self["bench"]/rootSeconds)
	r.set("bench.trace_overhead_frac", overhead(traced, plain))
	r.set("bench.host_factor", probe.endPhase())
	return r, saveTrace(c, kept)
}

// overhead is the median, over pairs of adjacent traced and plain
// times, of how much longer the traced one took, as a fraction. Pairing
// neighbours keeps slow drift of the host's speed out of the estimate.
// It is 0 when a run was too short to pair anything.
func overhead(traced, plain []float64) float64 {
	n := min(len(traced), len(plain))
	if n == 0 {
		return 0
	}
	ratios := make([]float64, n)
	for i := range ratios {
		ratios[i] = traced[i]/plain[i] - 1
	}
	return stats.Median(ratios)
}

// saveTrace writes the kept spans when -trace-out asks for them.
func saveTrace(c config, spans []obs.SpanData) error {
	if c.traceOut == "" {
		return nil
	}
	return trace.SaveChromeTrace(c.traceOut, spans)
}

// mustScrape scrapes an in-process registry, whose exposition only
// fails on a write error that a buffer cannot produce.
func mustScrape(reg *obs.Registry) counters {
	m, err := scrape(reg)
	if err != nil {
		panic(err.Error())
	}
	return m
}
