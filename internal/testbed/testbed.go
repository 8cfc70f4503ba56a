// Package testbed is the ground-truth server in this reproduction: it
// plays the role of the paper's physical machines (Figure 3's query
// generator, queue manager and execution engine) for the workload
// profiler. It simulates query executions under a sprinting policy with
// the runtime effects real hardware exhibits and the model-side queue
// simulator deliberately ignores (Section 2.3):
//
//   - phase-dependent sprint speedup: a sprint that engages mid-execution
//     traverses only the remaining phases (workload.SprintCurve);
//   - toggle overhead: engaging a sprint costs wall-clock time (voltage
//     ramps, thread migration);
//   - load-coupled slowdown: service times inflate mildly with queue
//     depth (cache and scheduler interference).
//
// The profiler measures this testbed exactly as the paper's profiler
// measures hardware: service rate from non-sprinted executions, marginal
// sprint rate from whole-execution sprints, and observed response times
// per tested condition. Model code must never import this package's
// runtime-effect internals.
package testbed

import (
	"fmt"
	"math"

	"mdsprint/internal/dist"
	"mdsprint/internal/mech"
	"mdsprint/internal/sprint"
	"mdsprint/internal/workload"
)

// Defaults for runtime-effect knobs.
const (
	// defaultLoadCoeff degrades the speedup of a sprint engaging with q
	// queries queued: the gain over sustained shrinks by 1/(1 +
	// coeff*q). It models the "queue length when sprinting begins"
	// runtime factor of Section 2.3 — deep queues mean cache and
	// scheduler interference while the mechanism toggles.
	defaultLoadCoeff = 0.04
	// maxLoadDegradation caps how much of the sprint gain congestion
	// can eat.
	maxLoadDegradation = 3.0
)

// Config describes one testbed run.
type Config struct {
	// Mix is the query mix served. Its classes must not change once
	// run: pooled servers memoize each class's sprint curve.
	Mix workload.Mix
	// Mechanism is the sprinting hardware.
	Mechanism mech.Mechanism
	// Policy is the sprinting policy under test. Policy.Speedup, if
	// nonzero, commands a sprint rate below the mechanism's capability
	// (Section 4.3's small-burst); the testbed clips it to what the
	// mechanism can deliver per class.
	Policy sprint.Policy
	// ArrivalRate is the query arrival rate in queries/second.
	ArrivalRate float64
	// ArrivalKind selects the interarrival distribution family.
	ArrivalKind dist.Kind
	// Slots is the number of concurrent executions (default 1).
	Slots int
	// NumQueries is the number of measured queries.
	NumQueries int
	// Warmup queries are simulated before measurement begins and
	// excluded from results.
	Warmup int
	// Seed drives all randomness in the run.
	Seed uint64

	// DisableRuntimeEffects turns off toggle overhead, phase curves and
	// load-coupled sprint degradation, leaving an idealised server.
	// Used only by tests that cross-validate the testbed against the
	// model simulator.
	DisableRuntimeEffects bool
	// LoadCoeff overrides the default sprint-degradation coefficient
	// when non-zero (set negative to force exactly zero).
	LoadCoeff float64
	// ServiceOverride, when non-nil, replaces every class's service-time
	// distribution. Validation tests use it to check the testbed against
	// closed-form M/M/1 and M/G/1 results.
	ServiceOverride dist.Dist
	// ArrivalOverride, when non-nil, replaces the (ArrivalKind,
	// ArrivalRate) interarrival process — e.g. a scripted dist.Sequence
	// for trace-shaped studies. ArrivalRate must still be positive for
	// validation.
	ArrivalOverride dist.Dist
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Slots == 0 {
		out.Slots = 1
	}
	if out.NumQueries == 0 {
		out.NumQueries = 1000
	}
	if out.ArrivalKind == "" {
		out.ArrivalKind = dist.KindExponential
	}
	//lint:ignore floateq 0 is the "use default" sentinel while negative means "explicitly zero", so <= 0 would erase that distinction
	if out.LoadCoeff == 0 {
		out.LoadCoeff = defaultLoadCoeff
	}
	if out.LoadCoeff < 0 {
		out.LoadCoeff = 0
	}
	if out.DisableRuntimeEffects {
		out.LoadCoeff = 0
	}
	return out
}

func (c *Config) validate() error {
	if len(c.Mix.Components) == 0 {
		return fmt.Errorf("testbed: config needs a workload mix")
	}
	if c.Mechanism == nil {
		return fmt.Errorf("testbed: config needs a sprinting mechanism")
	}
	if c.ArrivalRate <= 0 || math.IsNaN(c.ArrivalRate) {
		return fmt.Errorf("testbed: arrival rate %v must be positive", c.ArrivalRate)
	}
	if c.Slots < 0 || c.NumQueries < 0 || c.Warmup < 0 {
		return fmt.Errorf("testbed: negative slots/queries/warmup")
	}
	return nil
}

// QueryRecord is the per-query measurement the queue manager produces: the
// three timestamps of Section 2.1 plus sprint bookkeeping.
type QueryRecord struct {
	ID      int
	Class   string
	Arrival float64
	Start   float64 // dispatch to the execution engine
	Depart  float64
	// ServiceTime is the sampled sustained-rate processing demand,
	// after load inflation. Without sprinting, Depart-Start equals it.
	ServiceTime float64
	// TimedOut marks that the sprint timeout fired for this query.
	TimedOut bool
	// Sprinted marks that a sprint actually engaged.
	Sprinted bool
	// SprintTau is the work-progress fraction at which the sprint
	// engaged (0 for whole-execution sprints).
	SprintTau float64
	// SprintSeconds is the budget consumed by this query.
	SprintSeconds float64
	// Warm marks warmup queries, excluded from statistics.
	Warm bool
}

// ResponseTime returns Depart - Arrival.
func (q *QueryRecord) ResponseTime() float64 { return q.Depart - q.Arrival }

// QueueingTime returns Start - Arrival.
func (q *QueryRecord) QueueingTime() float64 { return q.Start - q.Arrival }

// ProcessingTime returns Depart - Start.
func (q *QueryRecord) ProcessingTime() float64 { return q.Depart - q.Start }

// Result is one testbed run's output.
type Result struct {
	Config  Config
	Queries []QueryRecord // measured queries only (warmup dropped)
	// SprintedCount is the number of measured queries that sprinted.
	SprintedCount int
	// Duration is the virtual time of the last departure.
	Duration float64

	// records holds every query's record, warmup included; Queries is
	// its measured tail. RunInto reuses it.
	records []QueryRecord
}

// ProcessingTimes returns per-query processing times.
func (r *Result) ProcessingTimes() []float64 {
	out := make([]float64, len(r.Queries))
	for i := range r.Queries {
		out[i] = r.Queries[i].ProcessingTime()
	}
	return out
}

// MeanResponseTime returns the average measured response time.
func (r *Result) MeanResponseTime() float64 {
	if len(r.Queries) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for i := range r.Queries {
		sum += r.Queries[i].ResponseTime()
	}
	return sum / float64(len(r.Queries))
}

// Run simulates the configured server and returns per-query records,
// freshly allocated, so a caller may keep them.
func Run(cfg Config) (*Result, error) {
	res := &Result{}
	if err := RunInto(cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

// RunInto is Run writing into res. It reuses the record storage of the
// last run into res (warmup records included) when it is large enough,
// so replays into one Result allocate no records in steady state; the
// previous run's Queries are overwritten, since every record is fully
// rewritten when its query arrives. A caller that keeps records across
// runs uses Run. On error res is untouched.
func RunInto(cfg Config, res *Result) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	s := serverPool.Get().(*server)
	s.reset(cfg.withDefaults(), res.records)
	s.run()
	s.result(res)
	s.release()
	serverPool.Put(s)
	return nil
}

// MustRun is Run for callers with static configs; it panics on error.
func MustRun(cfg Config) *Result {
	r, err := Run(cfg)
	if err != nil {
		panic(err)
	}
	return r
}
