// Package calib computes effective sprint rates (Section 2.3): for each
// profiled condition, the sprint rate mu_e that makes the timeout-aware
// queue simulator reproduce the observed response time (Equation 2):
//
//	mu_e = mu_m + min |x|  s.t.  RT_wp(F, mu_m) ~= RT_qs(F, mu_m + x)
//
// The effective rate absorbs the runtime factors the simulator eschews —
// where in the execution sprints begin, toggle delays, queue state at
// sprint time — and is the regression target for the random decision
// forest.
//
// The paper finds mu_e by exhaustive +-1-unit stepping from mu_m. Mean
// response time is monotone non-increasing in the sprint rate, so this
// package brackets and bisects instead, with common random numbers making
// each evaluation deterministic; an exhaustive stepping mode is kept for
// the ablation study.
package calib

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"mdsprint/internal/obs"
	"mdsprint/internal/profiler"
	"mdsprint/internal/queuesim"
	"mdsprint/internal/sweep"
)

// Options tunes the calibration search.
type Options struct {
	// NumQueries per simulator evaluation (default 3000).
	NumQueries int
	// Replications pooled per evaluation (default 2).
	Replications int
	// Tolerance is the acceptable relative gap between simulated and
	// observed response time (default 0.01).
	Tolerance float64
	// MaxIter bounds the bisection (default 40).
	MaxIter int
	// Stepping switches to the paper's exhaustive +-step search.
	// StepQPH is the step unit in queries/hour (default 1).
	Stepping bool
	StepQPH  float64
	// Seed fixes the common random numbers.
	Seed uint64
	// Workers bounds CalibrateDatasetCtx concurrency (default NumCPU).
	Workers int
	// Engine evaluates the simulator; nil uses sweep.Shared(), so
	// repeated bracket/bisection points — and whole re-calibrations of a
	// dataset — are memoized across the process.
	Engine *sweep.Engine
	// Metrics receives calibration progress (records calibrated,
	// simulator evaluations, convergence); nil records into
	// obs.Default().
	Metrics *obs.Registry

	// span is the tracing parent CalibrateDatasetCtx threads to each
	// record's search; per-record and per-evaluation spans nest under it.
	span *obs.Span
}

// calibMetrics resolves the calibration instrumentation handles.
type calibMetrics struct {
	records   *obs.Counter
	evals     *obs.Counter
	converged *obs.Counter
	relError  *obs.Histogram
	degraded  *obs.Counter
}

func (o Options) metrics() calibMetrics {
	reg := obs.Or(o.Metrics)
	return calibMetrics{
		records:   reg.Counter("mdsprint_calib_records_total", "effective-sprint-rate records calibrated"),
		evals:     reg.Counter("mdsprint_calib_sim_evals_total", "queue-simulator evaluations spent calibrating"),
		converged: reg.Counter("mdsprint_calib_converged_total", "calibrations that met the tolerance"),
		relError:  reg.Histogram("mdsprint_calib_rel_error", "achieved |simRT-obsRT|/obsRT per record", 0),
		degraded:  reg.Counter("mdsprint_calib_degraded_total", "records degraded to mu_m by a failed simulation"),
	}
}

func (o Options) withDefaults() Options {
	if o.NumQueries == 0 {
		o.NumQueries = 3000
	}
	if o.Replications == 0 {
		o.Replications = 2
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 0.01
	}
	if o.MaxIter == 0 {
		o.MaxIter = 40
	}
	if o.StepQPH <= 0 {
		o.StepQPH = 1
	}
	if o.Workers == 0 {
		o.Workers = runtime.NumCPU()
	}
	return o
}

// Record pairs a profiled condition with its calibrated effective rate —
// one training row for the random decision forest (Figure 5's table).
type Record struct {
	Cond profiler.Condition `json:"condition"`
	// ArrivalRate (lambda), ServiceRate (mu) and MarginalRate (mu_m for
	// this condition, after any commanded-speedup clipping) in
	// queries/second.
	ArrivalRate  float64 `json:"arrival_rate"`
	ServiceRate  float64 `json:"service_rate"`
	MarginalRate float64 `json:"marginal_rate"`
	// EffectiveRate is the calibrated mu_e in queries/second.
	EffectiveRate float64 `json:"effective_rate"`
	// ObservedRT and SimRT record the alignment the search achieved.
	ObservedRT float64 `json:"observed_rt"`
	SimRT      float64 `json:"sim_rt"`
}

// RelError returns the achieved |SimRT-ObservedRT|/ObservedRT.
func (r Record) RelError() float64 {
	return math.Abs(r.SimRT-r.ObservedRT) / r.ObservedRT
}

// simParams builds the queue-simulator parameters for one observation at
// the given sprint rate.
func simParams(ds *profiler.Dataset, obs profiler.Observation, rate float64, o Options) queuesim.Params {
	return queuesim.Params{
		ArrivalRate:   obs.ArrivalRate,
		ArrivalKind:   obs.Cond.ArrivalKind,
		Service:       ds.ServiceDist(),
		ServiceRate:   ds.ServiceRate,
		SprintRate:    rate,
		Timeout:       obs.Cond.Timeout,
		BudgetSeconds: obs.Cond.Policy().BudgetSeconds,
		RefillTime:    obs.Cond.RefillTime,
		NumQueries:    o.NumQueries,
		Warmup:        o.NumQueries / 10,
		Seed:          o.Seed,
	}
}

// SimulateRTErr evaluates the queue simulator's mean response time for
// one observation at the given sprint rate, with common random numbers.
// Evaluations route through the sweep engine, so re-visited rates come
// from the memoization cache instead of re-simulating.
func SimulateRTErr(ds *profiler.Dataset, obs profiler.Observation, rate float64, o Options) (float64, error) {
	o = o.withDefaults()
	pred, err := sweep.Or(o.Engine).EvaluateSpan(o.span, sweep.Task{
		Params: simParams(ds, obs, rate, o),
		Reps:   o.Replications,
	})
	if err != nil {
		return 0, fmt.Errorf("calib: simulate: %w", err)
	}
	return pred.MeanRT, nil
}

// EffectiveRate finds mu_e for one observation. It returns the calibrated
// record; search failures degrade gracefully to the nearest bound.
func EffectiveRate(ds *profiler.Dataset, obs profiler.Observation, opts Options) (rec Record) {
	o := opts.withDefaults()
	mu := ds.ServiceRate
	mum := ds.ConditionMarginal(obs.Cond)
	target := obs.MeanRT
	rec = Record{
		Cond:         obs.Cond,
		ArrivalRate:  obs.ArrivalRate,
		ServiceRate:  mu,
		MarginalRate: mum,
		ObservedRT:   target,
	}
	// The record's search is one span; the sweep evaluations it spends
	// nest under it (via o.span threaded through SimulateRTErr).
	sp := o.span.StartChild("calib.record")
	sp.SetFloat("arrival_rate", obs.ArrivalRate)
	sp.SetFloat("observed_rt", target)
	o.span = sp
	evals := 0
	var evalErr error
	eval := func(rate float64) float64 {
		if evalErr != nil {
			return math.NaN()
		}
		evals++
		rt, err := SimulateRTErr(ds, obs, rate, o)
		if err != nil {
			evalErr = err
			return math.NaN()
		}
		return rt
	}
	// Flush this record's instrumentation once, whichever path returns,
	// and degrade failed searches to mu_m.
	defer func() {
		m := o.metrics()
		m.records.Inc()
		m.evals.Add(float64(evals))
		if evalErr != nil {
			rec.EffectiveRate, rec.SimRT = mum, math.NaN()
			m.degraded.Inc()
		}
		relErr := rec.RelError()
		if !math.IsNaN(relErr) {
			m.relError.Observe(relErr)
			if relErr <= o.Tolerance {
				m.converged.Inc()
			}
		}
		sp.SetInt("evals", int64(evals))
		sp.SetFloat("effective_rate", rec.EffectiveRate)
		sp.SetBool("converged", !math.IsNaN(relErr) && relErr <= o.Tolerance)
		sp.SetError(evalErr)
		sp.End()
	}()

	if o.Stepping {
		rec.EffectiveRate, rec.SimRT = stepSearch(eval, mu, mum, target, o)
		return rec
	}

	// Bracket: RT is monotone non-increasing in the sprint rate. The
	// lower edge sits below the service rate so the effective rate can
	// express sprints whose overheads exceed their benefit.
	lo := mu * 0.5
	hi := math.Max(mum, mu) * 2.0 // generous upper bound
	rtLo := eval(lo)
	if rtLo <= target {
		// Observed RT is slower than anything the simulator can
		// produce: runtime factors beyond the sprint path dominate.
		rec.EffectiveRate, rec.SimRT = lo, rtLo
		return rec
	}
	rtHi := eval(hi)
	if rtHi >= target {
		rec.EffectiveRate, rec.SimRT = hi, rtHi
		return rec
	}
	best, bestRT := mum, eval(mum)
	if closeEnough(bestRT, target, o.Tolerance) {
		rec.EffectiveRate, rec.SimRT = best, bestRT
		return rec
	}
	a, b := lo, hi
	for i := 0; i < o.MaxIter; i++ {
		mid := (a + b) / 2
		rt := eval(mid)
		if math.Abs(rt-target) < math.Abs(bestRT-target) {
			best, bestRT = mid, rt
		}
		if closeEnough(rt, target, o.Tolerance) {
			break
		}
		if rt > target {
			a = mid
		} else {
			b = mid
		}
	}
	rec.EffectiveRate, rec.SimRT = best, bestRT
	return rec
}

func closeEnough(rt, target, tol float64) bool {
	return math.Abs(rt-target)/target <= tol
}

// stepSearch is the paper's exhaustive search: walk mu_e away from mu_m in
// +-1-unit (StepQPH) increments, keeping the smallest |x| that meets the
// tolerance; give up at the bracket edges and return the best seen.
func stepSearch(eval func(float64) float64, mu, mum, target float64, o Options) (rate, rt float64) {
	step := o.StepQPH / 3600 // qph -> qps
	best, bestRT := mum, eval(mum)
	if closeEnough(bestRT, target, o.Tolerance) {
		return best, bestRT
	}
	for i := 1; i <= o.MaxIter; i++ {
		for _, dir := range []float64{-1, 1} {
			cand := mum + dir*float64(i)*step
			if cand < mu || cand > mum*3 {
				continue
			}
			rtc := eval(cand)
			if math.Abs(rtc-target) < math.Abs(bestRT-target) {
				best, bestRT = cand, rtc
			}
			if closeEnough(rtc, target, o.Tolerance) {
				return best, bestRT
			}
		}
	}
	return best, bestRT
}

// startCtxSpan starts a span from ctx. A package-level wrapper because
// the calibration entry points shadow the obs import with their
// observation parameters.
func startCtxSpan(ctx context.Context, name string) *obs.Span {
	return obs.StartSpanCtx(ctx, name)
}

// CalibrateDatasetCtx computes one Record per observation, in parallel,
// honoring cancellation: once ctx is done, queued records are abandoned
// and ctx's error is returned (records already simulating finish their
// point). A nil ctx never cancels.
func CalibrateDatasetCtx(ctx context.Context, ds *profiler.Dataset, obs []profiler.Observation, opts Options) ([]Record, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := opts.withDefaults()
	sp := startCtxSpan(ctx, "calib.dataset")
	sp.SetInt("records", int64(len(obs)))
	defer sp.End()
	o.span = sp
	out := make([]Record, len(obs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, o.Workers)
	for i := range obs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if ctx.Err() != nil {
				return
			}
			oi := o
			oi.Seed = o.Seed + uint64(i)*0x9e3779b97f4a7c15
			out[i] = EffectiveRate(ds, obs[i], oi)
		}(i)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("calib: %w", err)
	}
	return out, nil
}
