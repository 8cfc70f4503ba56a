package online

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"mdsprint/internal/core"
	"mdsprint/internal/dist"
	"mdsprint/internal/profiler"
	"mdsprint/internal/queuesim"
	"mdsprint/internal/sweep"
	"mdsprint/internal/tier"
)

// Defaults of the synthetic sprint surface and of the controllers that
// tune against it, shared by the chaos replays, the serving daemon's
// tenants and the load generators that observe the surface.
const (
	// DefaultServiceRate is the surface's sustained service rate mu in
	// queries/second.
	DefaultServiceRate = 1.0
	// DefaultSprintGain is the peak relative boost sprinting gives the
	// effective service rate.
	DefaultSprintGain = 0.8
	// DefaultSweetTimeout is the timeout in seconds at which the boost
	// peaks.
	DefaultSweetTimeout = 20.0
	// DefaultMaxTimeout bounds the timeout search in seconds.
	DefaultMaxTimeout = 60.0
	// DefaultAnnealIter sizes each retune search.
	DefaultAnnealIter = 30
)

// SurfaceRT is the ground-truth response-time surface of the synthetic
// queue used by the chaos replays and the serving daemon's analytic
// tenant models: M/M/1-shaped, with a timeout-dependent sprint boost
// on the effective service rate that peaks at the sweet spot (x·e^(1−x)
// is 1 at x=1). Saturated arrivals clamp to the heavy-traffic response
// time so the surface stays finite under burst storms.
func SurfaceRT(mu, gain, sweet, lambda, to float64) float64 {
	muEff := surfaceMuEff(mu, gain, sweet, to)
	if lambda >= 0.95*muEff {
		return 20 / muEff
	}
	return 1 / (muEff - lambda)
}

// surfaceMuEff is the surface's effective service rate under timeout
// to.
func surfaceMuEff(mu, gain, sweet, to float64) float64 {
	x := to / sweet
	if x < 0 {
		x = 0
	}
	return mu * (1 + gain*x*math.Exp(1-x))
}

// SurfaceModel is an analytic performance model of the synthetic
// sprint surface (SurfaceRT). It carries runtime fault switches so the
// chaos replays, sprintd's /v1/fault endpoint and tests can script a
// diverged fit (bias), an outage (fail), a crashing model (panic) or a
// wedged one (delay) without rebuilding it. All switches are atomic:
// the goroutine that owns the controller reads them while another
// flips them. The happy path allocates nothing.
type SurfaceModel struct {
	name            string
	mu, gain, sweet float64

	bias     atomic.Uint64 // Float64bits; ≤ 0 means honest
	failing  atomic.Bool
	panicky  atomic.Bool
	delay    atomic.Int64 // nanoseconds of injected stall per prediction
	predicts atomic.Uint64

	// est, when set, answers the unsaturated surface query through the
	// staged tier estimator: 1/(muEff - lambda) is exactly the M/M/1
	// mean, so the analytic tier serves it for free while the ladder
	// still accounts for the query (and escalates honestly near
	// saturation). The cached task keeps steady-state predictions —
	// the same (rate, timeout) operating point decision after decision
	// — allocation-free; it is touched only by the goroutine that owns
	// Predict, like the controller itself.
	est        *tier.Estimator
	taskLambda uint64 // Float64bits of the cached task's arrival rate
	taskMuEff  uint64 // Float64bits of the cached task's service rate
	cached     sweep.Task
	haveTask   bool
}

// NewSurfaceModel returns an honest model of the surface with service
// rate mu, sprint gain and sweet-spot timeout.
func NewSurfaceModel(name string, mu, gain, sweet float64) *SurfaceModel {
	return &SurfaceModel{name: name, mu: mu, gain: gain, sweet: sweet}
}

// Name implements core.Model.
func (m *SurfaceModel) Name() string { return m.name }

// Predict implements core.Model, honoring whatever faults are scripted
// at call time.
func (m *SurfaceModel) Predict(_ *profiler.Dataset, sc core.Scenario) (core.Prediction, error) {
	m.predicts.Add(1)
	if d := m.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	if m.panicky.Load() {
		panic(fmt.Sprintf("online: model %s scripted panic", m.name))
	}
	if m.failing.Load() {
		return core.Prediction{}, fmt.Errorf("online: model %s scripted outage", m.name)
	}
	b := math.Float64frombits(m.bias.Load())
	if b <= 0 {
		b = 1
	}
	if m.est != nil {
		muEff := surfaceMuEff(m.mu, m.gain, m.sweet, sc.Cond.Timeout)
		if sc.ArrivalRate < 0.95*muEff {
			mean, _, err := m.est.MeanRT(m.task(sc.ArrivalRate, muEff))
			if err == nil {
				return core.Prediction{MeanRT: mean * b}, nil
			}
			// An estimator failure falls back to the closed form: the
			// surface is exact, the ladder is the accounting.
		}
	}
	rt := SurfaceRT(m.mu, m.gain, m.sweet, sc.ArrivalRate, sc.Cond.Timeout) * b
	return core.Prediction{MeanRT: rt}, nil
}

// SetTiers routes the model's unsaturated surface queries through a
// staged tier estimator. Call before the model serves predictions.
func (m *SurfaceModel) SetTiers(est *tier.Estimator) { m.est = est }

// Tiered reports whether a tier estimator answers the model's
// predictions (SetTiers).
func (m *SurfaceModel) Tiered() bool { return m.est != nil }

// task returns the M/M/1 query for the (lambda, muEff) operating
// point, rebuilding the cached task only when the point moves — the
// steady-state decide loop revisits one point, so this path performs
// no allocations after the first visit.
func (m *SurfaceModel) task(lambda, muEff float64) sweep.Task {
	lb, mb := math.Float64bits(lambda), math.Float64bits(muEff)
	if !m.haveTask || m.taskLambda != lb || m.taskMuEff != mb {
		m.cached = sweep.Task{Params: queuesim.Params{
			ArrivalRate: lambda,
			Service:     dist.NewExponential(muEff),
			ServiceRate: muEff,
			Timeout:     -1,
			NumQueries:  4000,
			Seed:        1,
		}, Reps: 2}
		m.taskLambda, m.taskMuEff, m.haveTask = lb, mb, true
	}
	return m.cached
}

// SetBias scales predictions by b (≤ 0 restores honesty) — a diverged
// fit that still answers.
func (m *SurfaceModel) SetBias(b float64) { m.bias.Store(math.Float64bits(b)) }

// SetFailing scripts every prediction to error — a model outage.
func (m *SurfaceModel) SetFailing(v bool) { m.failing.Store(v) }

// SetPanicky scripts every prediction to panic — the bulkhead test.
func (m *SurfaceModel) SetPanicky(v bool) { m.panicky.Store(v) }

// SetDelay scripts a stall of d per prediction — the wedged-model test.
func (m *SurfaceModel) SetDelay(d time.Duration) { m.delay.Store(int64(d)) }

// Predicts reports how many predictions the model has served.
func (m *SurfaceModel) Predicts() uint64 { return m.predicts.Load() }

// ScriptFault applies one named fault mode, the vocabulary of sprintd's
// /v1/fault endpoint: bias (scale predictions by value), fail and panic
// (value 0 turns the fault off), delay (value seconds per prediction)
// and clear (every switch off).
func (m *SurfaceModel) ScriptFault(mode string, value float64) error {
	switch mode {
	case "bias":
		m.SetBias(value)
	case "fail":
		//lint:ignore floateq the fault value is a boolean flag: exactly 0 means off
		m.SetFailing(value != 0)
	case "panic":
		//lint:ignore floateq the fault value is a boolean flag: exactly 0 means off
		m.SetPanicky(value != 0)
	case "delay":
		m.SetDelay(time.Duration(value * float64(time.Second)))
	case "clear":
		m.SetBias(0)
		m.SetFailing(false)
		m.SetPanicky(false)
		m.SetDelay(0)
	default:
		return fmt.Errorf("online: unknown fault mode %q (bias, fail, panic, delay, clear)", mode)
	}
	return nil
}
