// Package tier is a staged response-time estimator, the SkipPredict
// idea applied to this repository's own prediction stack: every model
// query pays wildly different costs for the same answer — a queueing
// closed form is ~free, a memoized sweep result costs a cache lookup, a
// short simulation costs milliseconds, a full-replication simulation
// costs the most — so each query should be answered by the cheapest
// tier whose error bound suffices.
//
// The ladder, cheapest first:
//
//	analytic  closed forms (internal/queuesim/analytic) behind an
//	          applicability gate and a calibrated error model;
//	cache     a completed sweep-engine memoization hit — the full
//	          answer at lookup cost, error zero by construction;
//	short     a few short replications, served only when their 95%
//	          confidence interval fits inside the bound;
//	full      the full-replication simulation, ground truth.
//
// Escalation is monotone in the bound: tightening the bound can only
// move a query to the same or a more expensive tier, never a cheaper
// one (the property tests pin this). Answers are deterministic: the
// same task against the same engine state produces bit-identical
// results at any sweep worker count, because every simulation runs
// through the sweep engine's determinism contract.
package tier

import (
	"math"
	"strings"
	"sync/atomic"

	"mdsprint/internal/dist"
	"mdsprint/internal/obs"
	"mdsprint/internal/queuesim"
	"mdsprint/internal/queuesim/analytic"
	"mdsprint/internal/sweep"
)

// Tier identifies the ladder rung that served an answer, cheapest
// first.
type Tier uint8

// The ladder, in escalation order.
const (
	TierAnalytic Tier = iota
	TierCache
	TierShort
	TierFull
	numTiers
)

// Tier name strings are preinterned constants so recording a tier on a
// hot path (decision ledgers, span attributes) never allocates.
const (
	tierAnalyticName = "analytic"
	tierCacheName    = "cache"
	tierShortName    = "short"
	tierFullName     = "full"
	tierNoneName     = "none"
)

// String names the tier ("analytic", "cache", "short", "full").
func (t Tier) String() string {
	switch t {
	case TierAnalytic:
		return tierAnalyticName
	case TierCache:
		return tierCacheName
	case TierShort:
		return tierShortName
	case TierFull:
		return tierFullName
	}
	return tierNoneName
}

// Escalation reasons, recorded as a bitmask on each Decision: why every
// tier cheaper than the serving one was passed over.
const (
	// EscBypass: the task carries a Tracer or Clock, whose side effects
	// only a real full evaluation produces — straight to ground truth.
	EscBypass uint32 = 1 << iota
	// EscAnalyticOff / EscCacheOff / EscShortOff: the tier is disabled
	// by the spec.
	EscAnalyticOff
	EscCacheOff
	EscShortOff
	// EscAnalyticGate: no closed form applies to the task's shape.
	EscAnalyticGate
	// EscAnalyticBound: a closed form applies, but the error model says
	// its disagreement with finite-replication ground truth may exceed
	// the bound.
	EscAnalyticBound
	// EscCacheMiss: the task is not memoized (or still in flight).
	EscCacheMiss
	// EscShortCI: the short replications' confidence interval is too
	// wide for the bound.
	EscShortCI
	// EscShortErr: a short replication failed; the full tier owns error
	// reporting.
	EscShortErr
)

// Decision is the provenance of one answer: which tier served, under
// what bound, with what estimated relative error, and why cheaper tiers
// were skipped.
type Decision struct {
	Tier Tier
	// Bound is the spec's error bound the answer honors; ErrEstimate is
	// the serving tier's own estimate of its relative error against
	// full-replication ground truth (0 for the cache and full tiers,
	// which are ground truth).
	Bound       float64
	ErrEstimate float64
	// Escalations is the bitmask of Esc* reasons recorded while walking
	// past cheaper tiers.
	Escalations uint32
}

// escalationNames orders the Esc* bits for rendering, cheapest skipped
// tier first.
var escalationNames = []struct {
	bit  uint32
	name string
}{
	{EscBypass, "bypass"},
	{EscAnalyticOff, "analytic-off"},
	{EscCacheOff, "cache-off"},
	{EscShortOff, "short-off"},
	{EscAnalyticGate, "analytic-gate"},
	{EscAnalyticBound, "analytic-bound"},
	{EscCacheMiss, "cache-miss"},
	{EscShortCI, "short-ci"},
	{EscShortErr, "short-err"},
}

// EscalationString renders the escalation bitmask as a comma-separated
// reason list ("-" when no cheaper tier was skipped) — the operator
// view in sprintctl tiers and ledger dumps.
func (d Decision) EscalationString() string {
	if d.Escalations == 0 {
		return "-"
	}
	var b strings.Builder
	for _, e := range escalationNames {
		if d.Escalations&e.bit == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(e.name)
	}
	return b.String()
}

// Options configures an Estimator.
type Options struct {
	// Engine serves the cache tier's lookups and runs the short and
	// full tiers' simulations; nil uses sweep.Shared().
	Engine *sweep.Engine
	// Metrics receives the mdsprint_tier_* instruments; nil records
	// into obs.Default().
	Metrics *obs.Registry
}

// Estimator answers simulator tasks with the cheapest sufficient tier.
// It is safe for concurrent use; the analytic and cache paths perform
// no steady-state heap allocations.
type Estimator struct {
	spec Spec
	eng  *sweep.Engine

	answers atomic.Uint64
	byTier  [numTiers]atomic.Uint64
	gates   atomic.Uint64 // EscAnalyticGate occurrences
	bounds  atomic.Uint64 // EscAnalyticBound occurrences
	misses  atomic.Uint64 // EscCacheMiss occurrences
	wideCIs atomic.Uint64 // EscShortCI/EscShortErr occurrences
	bypass  atomic.Uint64 // EscBypass occurrences

	m tierMetrics
}

type tierMetrics struct {
	answers *obs.Counter
	byTier  [numTiers]*obs.Counter
	gates   *obs.Counter
	bounds  *obs.Counter
	misses  *obs.Counter
	wideCIs *obs.Counter
	bypass  *obs.Counter
	errEst  *obs.Histogram
}

// New validates the spec and returns an estimator over the engine.
func New(spec Spec, o Options) (*Estimator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	reg := obs.Or(o.Metrics)
	e := &Estimator{
		spec: spec.withDefaults(),
		eng:  sweep.Or(o.Engine),
		m: tierMetrics{
			answers: reg.Counter("mdsprint_tier_answers_total", "queries answered by the staged estimator"),
			byTier: [numTiers]*obs.Counter{
				reg.Counter("mdsprint_tier_analytic_total", "queries served by the analytic closed-form tier"),
				reg.Counter("mdsprint_tier_cache_total", "queries served by the sweep-cache tier"),
				reg.Counter("mdsprint_tier_short_total", "queries served by the short-replication tier"),
				reg.Counter("mdsprint_tier_full_total", "queries served by full-replication simulation"),
			},
			gates:   reg.Counter("mdsprint_tier_esc_analytic_gate_total", "escalations because no closed form applies"),
			bounds:  reg.Counter("mdsprint_tier_esc_analytic_bound_total", "escalations because the analytic error model exceeds the bound"),
			misses:  reg.Counter("mdsprint_tier_esc_cache_miss_total", "escalations because the task is not memoized"),
			wideCIs: reg.Counter("mdsprint_tier_esc_short_ci_total", "escalations because the short tier's confidence interval is too wide (or a short replication failed)"),
			bypass:  reg.Counter("mdsprint_tier_esc_bypass_total", "tasks sent straight to full evaluation (tracer or clock attached)"),
			errEst:  reg.Histogram("mdsprint_tier_err_estimate", "serving tier's estimated relative error vs full-replication ground truth", 0),
		},
	}
	return e, nil
}

// Spec returns the resolved spec.
func (e *Estimator) Spec() Spec { return e.spec }

// Stats is a point-in-time snapshot of the estimator's counters.
type Stats struct {
	// Answers is every query served; Analytic..Full partition it by
	// serving tier.
	Answers                      uint64
	Analytic, Cache, Short, Full uint64
	// Escalation-reason occurrences (one query can record several).
	AnalyticGates, AnalyticBounds  uint64
	CacheMisses, WideCIs, Bypasses uint64
}

// Stats snapshots the counters.
func (e *Estimator) Stats() Stats {
	return Stats{
		Answers:        e.answers.Load(),
		Analytic:       e.byTier[TierAnalytic].Load(),
		Cache:          e.byTier[TierCache].Load(),
		Short:          e.byTier[TierShort].Load(),
		Full:           e.byTier[TierFull].Load(),
		AnalyticGates:  e.gates.Load(),
		AnalyticBounds: e.bounds.Load(),
		CacheMisses:    e.misses.Load(),
		WideCIs:        e.wideCIs.Load(),
		Bypasses:       e.bypass.Load(),
	}
}

// Sub returns the per-field difference s - prev, for windowed views
// (e.g. the answers one decision consumed).
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Answers:        s.Answers - prev.Answers,
		Analytic:       s.Analytic - prev.Analytic,
		Cache:          s.Cache - prev.Cache,
		Short:          s.Short - prev.Short,
		Full:           s.Full - prev.Full,
		AnalyticGates:  s.AnalyticGates - prev.AnalyticGates,
		AnalyticBounds: s.AnalyticBounds - prev.AnalyticBounds,
		CacheMisses:    s.CacheMisses - prev.CacheMisses,
		WideCIs:        s.WideCIs - prev.WideCIs,
		Bypasses:       s.Bypasses - prev.Bypasses,
	}
}

// CheapRate is the fraction of answers served below simulation cost
// (analytic + cache), 0 before any answers.
func (s Stats) CheapRate() float64 {
	if s.Answers == 0 {
		return 0
	}
	return float64(s.Analytic+s.Cache) / float64(s.Answers)
}

// Dominant returns the tier that served the most answers in this
// snapshot (cheapest wins ties) — the ledger's one-word summary of a
// window. The boolean is false when the snapshot holds no answers.
func (s Stats) Dominant() (Tier, bool) {
	if s.Answers == 0 {
		return TierFull, false
	}
	counts := [numTiers]uint64{s.Analytic, s.Cache, s.Short, s.Full}
	best := TierAnalytic
	for t := TierCache; t < numTiers; t++ {
		if counts[t] > counts[best] {
			best = t
		}
	}
	return best, true
}

// Calibration of the estimator's error models. The analytic answer is
// an exact property of the queueing model; its disagreement with a
// finite simulation is the simulation's own noise, which grows with
// utilization (autocorrelation near saturation slows the CLT) and
// service variability, and shrinks with the square root of the total
// simulated queries. The base and CLT constants are fitted to the
// tolerance schedule the simulator itself is validated under
// (queuesim's analytic tests: 0.04 at rho 0.3, 0.06 at rho 0.7, 0.12
// at rho 0.9, all at n=60000):
//
//	cltTerm = clt * (rho/(1-rho)) / sqrt(n) * cvFactor
//	errEst  = base + cltTerm
//
// cvFactor is quadratic in the service distribution's (1+scv)/2 once
// scv exceeds 1: heavy tails both widen the per-sample variance and
// lengthen the autocorrelation time, so a square-root correction alone
// provably under-covers (a log-normal with cv 1.8 at rho 0.5 and
// n=6000 realizes ~20% deviation; the linear model advertised 9%).
const (
	simErrBase = 0.03
	simErrCLT  = 3.0
)

// cltTerm is the congestion-scaled sampling-noise term for canonical
// params c observed over n simulated queries; +Inf when the nominal
// (no-sprint) load is unstable — sprinting may stabilize the real
// queue, but then no cheap model of its noise exists either.
func cltTerm(c queuesim.Params, n float64) float64 {
	meanS := c.Service.Mean()
	servers := c.Servers
	if servers < 1 {
		servers = 1
	}
	rho := c.ArrivalRate * meanS / (float64(c.Slots) * float64(servers))
	if !(rho > 0 && rho < 1) {
		return math.Inf(1)
	}
	cvFactor := 1.0
	if m2, ok := dist.SecondMoment(c.Service); ok && !math.IsInf(m2, 1) {
		if f := (1 + (m2-meanS*meanS)/(meanS*meanS)) / 2; f > 1 {
			cvFactor = f * f
		}
	}
	return simErrCLT * (rho / (1 - rho)) / math.Sqrt(n) * cvFactor
}

// analyticErrEstimate bounds the analytic tier's disagreement with
// ground truth pooling reps full replications of c.
func analyticErrEstimate(c queuesim.Params, reps int) float64 {
	return simErrBase + cltTerm(c, float64(reps*c.NumQueries))
}

// Seed salt and stride for the short tier's replications: salted so the
// short runs are decorrelated from the full tier's replications of the
// same seed, strided (same odd constant as queuesim's replication
// seeding) so each short replication is independent.
const (
	tierSeedSalt   uint64 = 0x7469657273616c74 // "tiersalt"
	tierSeedStride uint64 = 0x9e3779b97f4a7c15
)

// minShortQueries floors the short replications' horizon: below this,
// warmup transients dominate and the CI is meaningless.
const minShortQueries = 100

// tCrit95 are two-sided 95% Student-t critical values by degrees of
// freedom (index df-1), covering reps in [2, maxShortReps].
var tCrit95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
	2.262, 2.228, 2.201, 2.179, 2.160, 2.145, 2.131,
}

const maxShortReps = len(tCrit95) + 1

// shortTask derives the i-th short replication of base (already
// canonical): a NumQueries/ShortDiv horizon on a salted, strided seed.
func (e *Estimator) shortTask(base queuesim.Params, i int) sweep.Task {
	p := base
	q := p.NumQueries / e.spec.ShortDiv
	if q < minShortQueries {
		q = minShortQueries
	}
	p.NumQueries = q
	p.Warmup = q / 10
	p.Seed = (p.Seed ^ tierSeedSalt) + uint64(i)*tierSeedStride
	return sweep.Task{Params: p, Reps: 1}
}

// shortVerdict reduces the short replications' predictions to a pooled
// answer and an error estimate: the 95% relative CI halfwidth plus the
// congestion CLT term at the short volume. The CI only sees cross-rep
// sampling noise; the CLT term covers what it cannot — the shared
// truncated-horizon bias and the full-rep ground truth's own noise. ok
// reports whether the CI fits the spec's CI budget and the combined
// estimate fits the bound.
func (e *Estimator) shortVerdict(c queuesim.Params, subs []queuesim.Prediction) (queuesim.Prediction, float64, bool) {
	r := len(subs)
	mean := 0.0
	p95 := 0.0
	p99 := 0.0
	queries := 0
	for _, s := range subs {
		mean += s.MeanRT
		p95 += s.P95RT
		p99 += s.P99RT
		queries += s.QueriesSimulated
	}
	rf := float64(r)
	mean /= rf
	if !(mean > 0) {
		return queuesim.Prediction{}, math.Inf(1), false
	}
	varsum := 0.0
	for _, s := range subs {
		d := s.MeanRT - mean
		varsum += d * d
	}
	sd := math.Sqrt(varsum / (rf - 1))
	rel := tCrit95[r-2] * sd / math.Sqrt(rf) / mean
	pred := queuesim.Prediction{
		MeanRT:           mean,
		P95RT:            p95 / rf,
		P99RT:            p99 / rf,
		Replications:     r,
		QueriesSimulated: queries,
	}
	errEst := rel + cltTerm(c, float64(queries))
	return pred, errEst, rel <= e.spec.CIFrac*e.spec.Bound && errEst <= e.spec.Bound
}

// record counts one served answer.
func (e *Estimator) record(t Tier, errEst float64, esc uint32) {
	e.answers.Add(1)
	e.m.answers.Inc()
	e.byTier[t].Add(1)
	e.m.byTier[t].Inc()
	if esc&EscAnalyticGate != 0 {
		e.gates.Add(1)
		e.m.gates.Inc()
	}
	if esc&EscAnalyticBound != 0 {
		e.bounds.Add(1)
		e.m.bounds.Inc()
	}
	if esc&EscCacheMiss != 0 {
		e.misses.Add(1)
		e.m.misses.Inc()
	}
	if esc&(EscShortCI|EscShortErr) != 0 {
		e.wideCIs.Add(1)
		e.m.wideCIs.Inc()
	}
	if esc&EscBypass != 0 {
		e.bypass.Add(1)
		e.m.bypass.Inc()
	}
	e.m.errEst.Observe(errEst)
}

// tryAnalytic attempts the analytic tier for canonical params c. On
// success it returns the prediction; otherwise it returns the
// escalation reason bit. Quantiles are exact for the M/M/1-FIFO shape
// (whose response time is exponential) and NaN otherwise — like the
// direct-mapping ANN, a closed-form mean does not come with simulated
// percentiles.
func (e *Estimator) tryAnalytic(c queuesim.Params, reps int) (queuesim.Prediction, float64, uint32) {
	if e.spec.NoAnalytic {
		return queuesim.Prediction{}, 0, EscAnalyticOff
	}
	mean, err := analytic.MeanRT(c)
	if err != nil {
		return queuesim.Prediction{}, 0, EscAnalyticGate
	}
	errEst := analyticErrEstimate(c, reps)
	if errEst > e.spec.Bound {
		return queuesim.Prediction{}, 0, EscAnalyticBound
	}
	pred := queuesim.Prediction{MeanRT: mean, P95RT: math.NaN(), P99RT: math.NaN()}
	if exp, ok := c.Service.(dist.Exponential); ok && c.Slots == 1 && c.Discipline.Kind == queuesim.DiscFIFO {
		// M/M/1-FIFO: the stationary response time is exponential at
		// rate mu-lambda, so quantiles are closed-form too.
		rate := exp.Rate - c.ArrivalRate
		pred.P95RT = -math.Log(1-0.95) / rate
		pred.P99RT = -math.Log(1-0.99) / rate
	}
	return pred, errEst, 0
}

// Estimate answers one task with the cheapest sufficient tier: the
// bypass check, the analytic and cache tiers (no simulation), then the
// short replications unless the task bypasses or the spec disables
// them, then the full evaluation.
func (e *Estimator) Estimate(t sweep.Task) (queuesim.Prediction, Decision, error) {
	dec := Decision{Bound: e.spec.Bound}
	var c queuesim.Params
	bypass := t.Params.Tracer != nil || t.Params.Clock != nil
	if bypass {
		dec.Escalations = EscBypass
	} else {
		c = t.Params.Canonical()
		reps := t.Reps
		if reps <= 0 {
			reps = 1 // the sweep engine's default
		}
		pred, errEst, esc := e.tryAnalytic(c, reps)
		if esc == 0 {
			dec.Tier, dec.ErrEstimate = TierAnalytic, errEst
			e.record(TierAnalytic, errEst, 0)
			return pred, dec, nil
		}
		dec.Escalations |= esc
		if e.spec.NoCache {
			dec.Escalations |= EscCacheOff
		} else if pred, ok := e.eng.Lookup(t); ok {
			dec.Tier = TierCache
			e.record(TierCache, 0, dec.Escalations)
			return pred, dec, nil
		} else {
			dec.Escalations |= EscCacheMiss
		}
	}
	switch {
	case bypass:
	case e.spec.NoShort:
		dec.Escalations |= EscShortOff
	default:
		subs := make([]queuesim.Prediction, e.spec.ShortReps)
		var err error
		for i := range subs {
			if subs[i], err = e.eng.Evaluate(e.shortTask(c, i)); err != nil {
				break
			}
		}
		if err != nil {
			dec.Escalations |= EscShortErr
		} else if pred, rel, fits := e.shortVerdict(c, subs); fits {
			dec.Tier, dec.ErrEstimate = TierShort, rel
			e.record(TierShort, rel, dec.Escalations)
			return pred, dec, nil
		} else {
			dec.Escalations |= EscShortCI
		}
	}
	dec.Tier = TierFull
	pred, err := e.eng.Evaluate(t)
	e.record(TierFull, 0, dec.Escalations)
	return pred, dec, err
}

// MeanRT is Estimate reduced to the mean response time — the quantity
// every policy search and online decision scores on.
func (e *Estimator) MeanRT(t sweep.Task) (float64, Decision, error) {
	pred, dec, err := e.Estimate(t)
	return pred.MeanRT, dec, err
}
