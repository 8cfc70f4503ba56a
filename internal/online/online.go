// Package online addresses the paper's Section 5 open challenge:
// estimating runtime conditions online and applying the performance model
// to noisy estimates. It provides sliding-window and exponentially
// weighted arrival-rate estimators and an adaptive policy controller that
// re-selects the sprint timeout whenever the estimated conditions drift.
package online

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"mdsprint/internal/core"
	"mdsprint/internal/explore"
	"mdsprint/internal/fault"
	"mdsprint/internal/obs"
	"mdsprint/internal/profiler"
)

// RateEstimator estimates an arrival rate from observed arrival
// timestamps over a sliding window, optionally smoothed with an EWMA.
// It is not safe for concurrent use.
type RateEstimator struct {
	window float64
	alpha  float64 // EWMA weight per update; 0 disables smoothing

	times []float64 // arrivals within the window, ascending
	ewma  float64
	init  bool
}

// NewRateEstimator returns an estimator over the given window (seconds).
// alpha in [0, 1) blends each new windowed estimate into an EWMA; 0 uses
// the raw windowed rate. The window must be positive and finite.
func NewRateEstimator(window, alpha float64) (*RateEstimator, error) {
	if !(window > 0) || math.IsInf(window, 1) {
		return nil, fmt.Errorf("online: NewRateEstimator window %v must be positive and finite", window)
	}
	if !(alpha >= 0 && alpha < 1) {
		return nil, fmt.Errorf("online: NewRateEstimator alpha %v must be in [0, 1)", alpha)
	}
	return &RateEstimator{window: window, alpha: alpha}, nil
}

// MustRateEstimator is NewRateEstimator for statically known arguments;
// it panics on invalid ones.
func MustRateEstimator(window, alpha float64) *RateEstimator {
	e, err := NewRateEstimator(window, alpha)
	if err != nil {
		panic(err.Error())
	}
	return e
}

// Observe records one arrival at time t. Real clocks misbehave, so the
// estimator tolerates adversarial input instead of panicking: non-finite
// timestamps are ignored, and a timestamp regressing behind the last
// arrival is clamped to it (observed as a simultaneous arrival).
func (e *RateEstimator) Observe(t float64) {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return
	}
	if n := len(e.times); n > 0 && t < e.times[n-1] {
		t = e.times[n-1]
	}
	e.times = append(e.times, t)
	e.trim(t)
	raw := e.windowedRate(t)
	if !e.init {
		// Seed the EWMA from the first estimate backed by at least
		// one complete inter-arrival gap.
		if len(e.times) >= 2 {
			e.ewma = raw
			e.init = true
		}
		return
	}
	if e.alpha > 0 {
		e.ewma = e.alpha*e.ewma + (1-e.alpha)*raw
	} else {
		e.ewma = raw
	}
}

// trim drops arrivals older than the window.
func (e *RateEstimator) trim(now float64) {
	cut := 0
	for cut < len(e.times) && e.times[cut] < now-e.window {
		cut++
	}
	if cut > 0 {
		e.times = append(e.times[:0], e.times[cut:]...)
	}
}

// windowedRate is the raw arrivals-per-second over the trailing window.
// Early in the stream, before the window fills, the rate is estimated
// from the inter-arrival span of the observations seen so far; a single
// observation is not enough to estimate anything beyond a floor.
func (e *RateEstimator) windowedRate(now float64) float64 {
	n := len(e.times)
	if n < 2 {
		return float64(n) / e.window
	}
	span := now - e.times[0]
	if span >= e.window {
		return float64(n) / e.window
	}
	// n arrivals over a partial span: n-1 complete inter-arrival gaps.
	return float64(n-1) / math.Max(span, e.window/1e6)
}

// Rate returns the current estimate at time now. A non-finite now is
// replaced by the last observed arrival time, so the estimate stays
// finite whatever the caller's clock reports.
func (e *RateEstimator) Rate(now float64) float64 {
	if math.IsNaN(now) || math.IsInf(now, 0) {
		if len(e.times) == 0 {
			return 0
		}
		now = e.times[len(e.times)-1]
	}
	e.trim(now)
	if len(e.times) == 0 {
		return 0
	}
	if e.alpha > 0 && e.init {
		return e.ewma
	}
	return e.windowedRate(now)
}

// Observations returns how many arrivals are inside the window.
func (e *RateEstimator) Observations() int { return len(e.times) }

// Controller re-selects the sprint timeout with a performance model
// whenever the estimated arrival rate drifts by more than
// RetuneThreshold (relative).
//
// A controller built by NewFallbackController over an untiered model
// (FallbackConfig.Tiers nil, and the model reports no tiers of its own)
// scores the search's rejection branch ahead on a second core
// (explore.Options.Speculate) when GOMAXPROCS > 1 and its last two
// searches, timed on Clock, each read at least speculateMinNanos per
// prediction: far more than the handoff to the second goroutine. The
// first search reads for both, and runs serially itself. A speculating
// search reads its predictions at one to about two times their cost, so
// a costly model keeps speculating and one that turns cheap stops. Its
// decisions are the serial search's, bit for bit, because an untiered
// prediction is a pure, memoized function of its scenario. A tiered one
// is not: the estimator's ladder and cache answer by what it was asked
// before, so a speculative query could change a later answer, and
// tiered models stay serial. sprintd's tenants are tiered when they
// have a tier spec; the closed-form surface of the others predicts far
// under the gate and stays serial too, until the delay fault makes its
// predictions read as costly, with the same decisions. A controller
// built directly never speculates.
type Controller struct {
	// Model predicts response time against Dataset.
	Model   core.Model
	Dataset *profiler.Dataset
	// Base is the policy template; the controller tunes its timeout.
	Base profiler.Condition
	// MaxTimeout bounds the search (seconds).
	MaxTimeout float64
	// AnnealIter and Seed drive the annealing search.
	AnnealIter int
	Seed       uint64
	// RetuneThreshold is the relative rate drift that triggers a new
	// search (default 0.15).
	RetuneThreshold float64
	// Metrics records each re-selection decision (old timeout, new
	// timeout, estimated rate, retune count); nil records into
	// obs.Default() so adaptive-control behaviour is inspectable from
	// sprintctl's debug endpoints.
	Metrics *obs.Registry
	// Breaker, when set, circuit-breaks the model-driven search: while
	// open, a drifted estimate keeps the current timeout instead of
	// re-annealing, and search failures/successes feed the breaker. May
	// be nil.
	Breaker *fault.Breaker
	// Clock times the annealing searches for decision provenance; nil
	// uses the real clock.
	Clock obs.Clock

	tunedRate    float64
	currentTO    float64
	haveDecision bool
	retunes      int
	lastPredRT   float64

	// pure reports that Model is a pure function of its scenario, safe
	// for concurrent use: NewFallbackController sets it for untiered
	// models. callNanos holds the wall time per prediction that the last
	// two searches read on Clock (the first search fills both); a
	// speculating search's reading never falls below the cost of one
	// prediction (see timeout). Together they gate speculation (see
	// Controller).
	pure      bool
	callNanos [2]int64
	timed     bool // a search has filled callNanos

	// score is scored.predictAt, bound once so that a search allocates
	// no objective; it reads the context and arrival rate of the search
	// in flight, set for the search's duration only.
	score      func(point []float64) (float64, error)
	scored     *Controller
	searchCtx  context.Context
	searchRate float64
}

// speculateMinNanos is the wall time per prediction, as each of the last
// two searches read it, from which a search scores its rejection branch
// ahead on a second core. Two readings, so that one search stretched by
// a preemption or a collection does not turn speculation on.
// BenchmarkMinimizeSpeculation (2-vCPU shared VM) puts the channel
// handoff to the search's second goroutine at ~0.65 µs per round (0.07–
// 0.10 → 0.71–0.79 µs per consumed call for a free objective), but a
// sleeping goroutine can take far longer to wake on a busy host:
// speculation lost at 5.3 µs calls (→ 6.9–7.2 µs per consumed call) and
// at 52 µs (→ 56–59 µs), and won from 107 µs (→ 93 µs), 220 µs (→ 156
// µs) and 560 µs (→ 342–353 µs). A hybrid prediction takes ~330 µs;
// sprintd's closed-form surface well under 1 µs.
const speculateMinNanos = 100_000

// speculate reports whether the next search may score ahead: the model
// is pure, the last two searches read a prediction as far costlier than
// the handoff, and another core can run.
func (c *Controller) speculate() bool {
	return c.pure && min(c.callNanos[0], c.callNanos[1]) >= speculateMinNanos && runtime.GOMAXPROCS(0) > 1
}

// tierInfo is the provenance of one tier-level timeout answer.
type tierInfo struct {
	// PredictedRT is the model's expected mean RT at the returned
	// timeout (carried over from the last search when the decision is
	// cached).
	PredictedRT float64
	// Retuned reports whether this answer ran a fresh annealing search;
	// SearchNanos is that search's wall time (0 when cached).
	Retuned     bool
	SearchNanos int64
}

// recordDecision publishes one re-selection to the metrics registry.
func (c *Controller) recordDecision(oldTO, newTO, rate float64, first bool) {
	reg := obs.Or(c.Metrics)
	reg.Counter("mdsprint_online_retunes_total", "model-driven timeout re-selections").Inc()
	if !first {
		reg.Gauge("mdsprint_online_prev_timeout_seconds", "timeout in force before the last re-selection").Set(oldTO)
	}
	reg.Gauge("mdsprint_online_timeout_seconds", "timeout selected by the last re-selection").Set(newTO)
	reg.Gauge("mdsprint_online_estimated_rate_qps", "arrival-rate estimate that drove the last re-selection").Set(rate)
}

// Timeout returns the controller's current timeout for the estimated
// arrival rate, re-running the model-driven search if the estimate has
// drifted beyond the threshold since the last decision.
func (c *Controller) Timeout(estimatedRate float64) (float64, error) {
	to, _, err := c.timeout(context.Background(), estimatedRate)
	return to, err
}

// timeout is Timeout's body, additionally reporting the decision's
// provenance (predicted RT, whether a search ran, its wall time). The
// context carries the caller's span, so a context-aware model's
// prediction spans nest under the decision instead of floating as
// roots.
func (c *Controller) timeout(ctx context.Context, estimatedRate float64) (float64, tierInfo, error) {
	if estimatedRate <= 0 {
		return 0, tierInfo{}, fmt.Errorf("online: non-positive rate estimate %v", estimatedRate)
	}
	thr := c.RetuneThreshold
	if thr <= 0 {
		thr = 0.15
	}
	if c.haveDecision && math.Abs(estimatedRate-c.tunedRate)/c.tunedRate <= thr {
		return c.currentTO, tierInfo{PredictedRT: c.lastPredRT}, nil
	}
	// An open breaker suppresses the search: ride the current decision
	// (degraded but safe) rather than re-annealing with a model that has
	// been failing.
	if c.Breaker != nil && !c.Breaker.Allow() {
		if c.haveDecision {
			return c.currentTO, tierInfo{PredictedRT: c.lastPredRT}, nil
		}
		return 0, tierInfo{}, fmt.Errorf("online: retune breaker open before any decision")
	}
	maxTO := c.MaxTimeout
	if maxTO <= 0 {
		maxTO = 300
	}
	iter := c.AnnealIter
	if iter == 0 {
		iter = 60
	}
	// A failed prediction scores its timeout +Inf and the search runs
	// on; the first failure the search consumed is surfaced as the
	// search's error, never a panic.
	if c.scored != c { // first search, or a copied controller
		c.score, c.scored = c.predictAt, c
	}
	c.searchCtx, c.searchRate = ctx, estimatedRate
	clk := obs.ClockOr(c.Clock)
	searchStart := clk.Now()
	spec := c.speculate()
	res, err := explore.MinimizeCtx(ctx, c.score, explore.TimeoutSpace(0, maxTO),
		explore.Options{MaxIter: iter, Seed: c.Seed + uint64(c.retunes), Speculate: spec})
	c.searchCtx = nil
	searchNanos := clk.Now().Sub(searchStart).Nanoseconds()
	// A serial search waits on each value it consumes in turn. A
	// speculating one waits on its own calls in turn, each with at most
	// one speculative call beside it, so it consumes at most two values
	// per own call: dividing by half its consumed values reads at least
	// the cost of one call, and at most about twice it.
	if calls := int64(res.Evaluations - res.Speculative); calls > 0 {
		if spec {
			calls = (calls + 1) / 2
		}
		n := searchNanos / calls
		if !c.timed {
			c.callNanos[1], c.timed = n, true // the first search reads for both
		}
		c.callNanos = [2]int64{c.callNanos[1], n}
	}
	if err != nil {
		c.reportSearch(false)
		return 0, tierInfo{Retuned: true, SearchNanos: searchNanos}, err
	}
	c.reportSearch(true)
	oldTO := c.currentTO
	first := !c.haveDecision
	c.tunedRate = estimatedRate
	c.currentTO = res.Point[0]
	c.lastPredRT = res.RT
	c.haveDecision = true
	c.retunes++
	c.recordDecision(oldTO, c.currentTO, estimatedRate, first)
	return c.currentTO, tierInfo{PredictedRT: res.RT, Retuned: true, SearchNanos: searchNanos}, nil
}

// predictAt is the retune search's objective: the model's mean RT at
// timeout point[0], under the context and arrival rate of the search in
// flight.
func (c *Controller) predictAt(point []float64) (float64, error) {
	cond := c.Base
	cond.Timeout = point[0]
	pred, err := predictModel(c.searchCtx, c.Model, c.Dataset, core.Scenario{Cond: cond, ArrivalRate: c.searchRate})
	if err != nil {
		return 0, fmt.Errorf("online: model prediction during retune: %w", err)
	}
	return pred.MeanRT, nil
}

// predictModel routes a prediction through the model's context-aware
// entry point when it has one, so span parentage survives the search.
func predictModel(ctx context.Context, m core.Model, ds *profiler.Dataset, sc core.Scenario) (core.Prediction, error) {
	if cm, ok := m.(core.CtxModel); ok {
		return cm.PredictCtx(ctx, ds, sc)
	}
	return m.Predict(ds, sc)
}

// reportSearch feeds one search outcome to the breaker, if any.
func (c *Controller) reportSearch(ok bool) {
	if c.Breaker == nil {
		return
	}
	if ok {
		c.Breaker.Success()
	} else {
		c.Breaker.Failure()
	}
}

// Retunes reports how many model-driven searches the controller has run.
func (c *Controller) Retunes() int { return c.retunes }
