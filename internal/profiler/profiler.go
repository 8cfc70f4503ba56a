// Package profiler implements the paper's workload profiling stage
// (Section 2.1): it replays a representative query mix against the
// (simulated) server many times, varying arrival patterns and sprinting
// policies over the cluster-sampling grid of Section 3, and records the
// three profiler outputs:
//
//  1. service rate (mu) — inverse mean processing time of non-sprinted
//     query executions;
//  2. marginal sprint rate (mu_m) — inverse mean processing time when
//     whole executions are sprinted (timeouts trigger before dispatch);
//  3. observed response times per tested condition.
//
// The resulting Dataset is the only information the models ever see about
// the server: the testbed's runtime-effect parameters stay hidden, exactly
// as real hardware hides them from the paper's profiler.
package profiler

import (
	"fmt"
	"runtime"
	"sync"

	"mdsprint/internal/dist"
	"mdsprint/internal/mech"
	"mdsprint/internal/obs"
	"mdsprint/internal/sprint"
	"mdsprint/internal/stats"
	"mdsprint/internal/testbed"
	"mdsprint/internal/workload"
)

// Condition is one profiled setting: workload conditions (arrival process)
// plus a sprinting policy.
type Condition struct {
	// Utilization is the arrival rate as a fraction of the sustained
	// service rate (the paper's "query arrival rate" axis).
	Utilization float64 `json:"utilization"`
	// ArrivalKind selects the interarrival distribution.
	ArrivalKind dist.Kind `json:"arrival_kind"`
	// Timeout, RefillTime in seconds; BudgetPct is the budget as a
	// fraction of sustained capacity over one refill window.
	Timeout    float64 `json:"timeout"`
	RefillTime float64 `json:"refill_time"`
	BudgetPct  float64 `json:"budget_pct"`
	// Speedup commands a sprint rate below the mechanism's maximum;
	// zero uses the mechanism's full capability.
	Speedup float64 `json:"speedup,omitempty"`
}

// Policy converts the condition's policy fields into a sprint.Policy.
func (c Condition) Policy() sprint.Policy {
	return sprint.Policy{
		Timeout:       c.Timeout,
		BudgetSeconds: sprint.BudgetFromPercent(c.BudgetPct, c.RefillTime),
		RefillTime:    c.RefillTime,
		Speedup:       speedupOrMax(c.Speedup),
	}
}

// speedupOrMax maps the "use mechanism maximum" sentinel to a value that
// never clips the mechanism.
func speedupOrMax(s float64) float64 {
	if s <= 0 {
		return 1e9
	}
	return s
}

func (c Condition) String() string {
	return fmt.Sprintf("util=%.0f%% %s timeout=%.0fs refill=%.0fs budget=%.0f%%",
		c.Utilization*100, c.ArrivalKind, c.Timeout, c.RefillTime, c.BudgetPct*100)
}

// Observation is the measured outcome of one condition.
type Observation struct {
	Cond Condition `json:"condition"`
	// ArrivalRate is the actual query arrival rate of the run in
	// queries/second — a workload condition the model is given
	// (Figure 2's "arrival rate" input).
	ArrivalRate float64 `json:"arrival_rate"`
	// MeanRT is the observed mean response time, seconds.
	MeanRT float64 `json:"mean_rt"`
	// P95RT and P99RT capture the observed tail.
	P95RT float64 `json:"p95_rt"`
	P99RT float64 `json:"p99_rt"`
	// SprintedFrac is the fraction of measured queries that sprinted.
	SprintedFrac float64 `json:"sprinted_frac"`
}

// Dataset is a profiled workload on one mechanism: the paper's training
// input for one (workload, platform) pair.
type Dataset struct {
	MixName  string `json:"mix"`
	MechName string `json:"mechanism"`
	// ServiceRate is mu in queries/second.
	ServiceRate float64 `json:"service_rate"`
	// MarginalRate is mu_m in queries/second.
	MarginalRate float64 `json:"marginal_rate"`
	// ServiceSamples are measured non-sprinted processing times,
	// resampled by the queue simulator through ServiceDist. They must
	// not be mutated after ServiceDist is first called: the
	// distribution is built from them once.
	ServiceSamples []float64 `json:"service_samples"`
	// Observations hold per-condition response-time measurements.
	Observations []Observation `json:"observations"`
	// ProfilingSeconds is the simulated wall-clock spent profiling;
	// Section 4.4's cost analysis charges this against revenue.
	ProfilingSeconds float64 `json:"profiling_seconds"`

	svcOnce sync.Once
	svc     *dist.Empirical // ServiceDist, once built
}

// MarginalSpeedup returns mu_m / mu, the measured whole-execution speedup.
func (d *Dataset) MarginalSpeedup() float64 { return d.MarginalRate / d.ServiceRate }

// ServiceDist returns the empirical distribution over ServiceSamples, or
// nil when there are none. It is built on first use and shared by every
// later caller, concurrent ones included.
func (d *Dataset) ServiceDist() *dist.Empirical {
	if len(d.ServiceSamples) == 0 {
		return nil
	}
	d.svcOnce.Do(func() { d.svc = dist.NewEmpirical(d.ServiceSamples) })
	return d.svc
}

// Profiler drives testbed runs for one mix/mechanism pair.
type Profiler struct {
	Mix       workload.Mix
	Mechanism mech.Mechanism
	// QueriesPerRun and Warmup size each replay (defaults 1500/150).
	QueriesPerRun int
	Warmup        int
	// Replications averages each condition over this many seeds
	// (default 1).
	Replications int
	// Seed derives all run seeds.
	Seed uint64
	// Workers bounds profiling concurrency (default NumCPU).
	Workers int
	// Metrics receives progress instrumentation (conditions planned and
	// profiled, per-condition simulated seconds, measured rates); nil
	// records into obs.Default() so sprintctl's -debug-addr sees live
	// progress without extra plumbing.
	Metrics *obs.Registry
}

// progressMetrics resolves the profiler's instrumentation handles.
type progressMetrics struct {
	planned     *obs.Gauge
	done        *obs.Counter
	runs        *obs.Counter
	condSeconds *obs.Histogram
	serviceRate *obs.Gauge
	marginal    *obs.Gauge
}

func (p *Profiler) metrics() progressMetrics {
	reg := obs.Or(p.Metrics)
	return progressMetrics{
		planned:     reg.Gauge("mdsprint_profiler_conditions_planned", "conditions in the current profiling grid"),
		done:        reg.Counter("mdsprint_profiler_conditions_total", "conditions profiled"),
		runs:        reg.Counter("mdsprint_profiler_runs_total", "testbed replays executed"),
		condSeconds: reg.Histogram("mdsprint_profiler_condition_sim_seconds", "simulated seconds per profiled condition", 0),
		serviceRate: reg.Gauge("mdsprint_profiler_service_rate_qps", "measured service rate mu of the last profile"),
		marginal:    reg.Gauge("mdsprint_profiler_marginal_rate_qps", "measured marginal sprint rate mu_m of the last profile"),
	}
}

func (p *Profiler) defaults() Profiler {
	out := *p
	if out.QueriesPerRun == 0 {
		out.QueriesPerRun = 1500
	}
	if out.Warmup == 0 {
		out.Warmup = out.QueriesPerRun / 10
	}
	if out.Replications == 0 {
		out.Replications = 1
	}
	if out.Workers == 0 {
		out.Workers = runtime.NumCPU()
	}
	return out
}

// sustainedRate returns the mix's sustained service rate under the
// profiler's mechanism, in queries/second (nominal, pre-measurement).
func (p *Profiler) sustainedRate() float64 {
	total := 0.0
	for _, comp := range p.Mix.Components {
		total += comp.Weight / sprint.QPH(p.Mechanism.SustainedQPH(comp.Class))
	}
	return 1 / (total * p.Mix.Interference)
}

// MeasureServiceRate runs the mix without sprinting and returns the
// measured service rate (mu, queries/second) plus the raw processing-time
// samples. This is profiler output #1.
func (p *Profiler) MeasureServiceRate() (float64, []float64, float64) {
	pp := p.defaults()
	r := replays.Get().(*replay)
	defer replays.Put(r)
	replayInto(testbed.Config{
		Mix:         pp.Mix,
		Mechanism:   pp.Mechanism,
		Policy:      sprint.Policy{Timeout: -1},
		ArrivalRate: 0.5 * pp.sustainedRate(),
		NumQueries:  pp.QueriesPerRun,
		Warmup:      pp.Warmup,
		Seed:        pp.Seed ^ 0xa5a5a5a5,
	}, &r.res)
	samples := r.res.ProcessingTimes()
	return 1 / stats.Mean(samples), samples, r.res.Duration
}

// MeasureMarginalRate sprints every execution in full (timeout zero,
// effectively unlimited budget) and returns the marginal sprint rate
// (mu_m, queries/second). This is profiler output #2.
func (p *Profiler) MeasureMarginalRate() (float64, float64) {
	pp := p.defaults()
	r := replays.Get().(*replay)
	defer replays.Put(r)
	replayInto(testbed.Config{
		Mix:       pp.Mix,
		Mechanism: pp.Mechanism,
		Policy: sprint.Policy{
			Timeout: 0, BudgetSeconds: 1e15, RefillTime: 1, Speedup: 1e9,
		},
		ArrivalRate: 0.3 * pp.sustainedRate(),
		NumQueries:  pp.QueriesPerRun,
		Warmup:      pp.Warmup,
		Seed:        pp.Seed ^ 0x5a5a5a5a,
	}, &r.res)
	// Only whole-execution sprints count toward mu_m.
	times := r.times[:0]
	for i := range r.res.Queries {
		q := &r.res.Queries[i]
		if q.Sprinted && stats.ApproxZero(q.SprintTau, 1e-12) {
			times = append(times, q.ProcessingTime())
		}
	}
	if len(times) == 0 {
		// Degenerate mechanism (speedup 1): fall back to all queries.
		for i := range r.res.Queries {
			times = append(times, r.res.Queries[i].ProcessingTime())
		}
	}
	r.times = times
	return 1 / stats.Mean(times), r.res.Duration
}

// replayInto runs cfg on the testbed into res; the profiler builds
// every config itself, so an invalid one is a bug.
func replayInto(cfg testbed.Config, res *testbed.Result) {
	if err := testbed.RunInto(cfg, res); err != nil {
		panic(err)
	}
}

// replay is the scratch one measurement replays into: a testbed result
// whose records the next replay overwrites, and a buffer for the
// per-query times read out of it.
type replay struct {
	res   testbed.Result
	times []float64
}

// replays recycles replay scratch: a measurement reads its replays'
// times and keeps neither the records nor the buffer.
var replays = sync.Pool{New: func() any { return new(replay) }}

// RunCondition replays the mix once under cond and returns the
// observation plus the simulated duration.
func (p *Profiler) RunCondition(cond Condition, seed uint64) (Observation, float64) {
	pp := p.defaults()
	sprinted := 0
	total := 0
	dur := 0.0
	m := p.metrics()
	r := replays.Get().(*replay)
	defer replays.Put(r)
	rts := r.times[:0]
	for rep := 0; rep < pp.Replications; rep++ {
		replayInto(testbed.Config{
			Mix:         pp.Mix,
			Mechanism:   pp.Mechanism,
			Policy:      cond.Policy(),
			ArrivalKind: cond.ArrivalKind,
			ArrivalRate: cond.Utilization * pp.sustainedRate(),
			NumQueries:  pp.QueriesPerRun,
			Warmup:      pp.Warmup,
			Seed:        seed + uint64(rep)*0x9e3779b9,
		}, &r.res)
		m.runs.Inc()
		for i := range r.res.Queries {
			rts = append(rts, r.res.Queries[i].ResponseTime())
		}
		sprinted += r.res.SprintedCount
		total += len(r.res.Queries)
		dur += r.res.Duration
	}
	r.times = rts
	// The mean sums in replication order before selection reorders rts.
	mean := stats.Mean(rts)
	p95, p99 := stats.SelectQuantilePair(rts, 0.95, 0.99)
	return Observation{
		Cond:         cond,
		ArrivalRate:  cond.Utilization * pp.sustainedRate(),
		MeanRT:       mean,
		P95RT:        p95,
		P99RT:        p99,
		SprintedFrac: float64(sprinted) / float64(total),
	}, dur
}

// Profile measures mu and mu_m and replays every condition, all in
// parallel across Workers: no condition reads mu or mu_m. Results are
// deterministic for a fixed Seed regardless of worker count.
func (p *Profiler) Profile(conds []Condition) *Dataset {
	pp := p.defaults()
	m := pp.metrics()
	m.planned.Set(float64(len(conds)))
	ds := &Dataset{
		MixName:      pp.Mix.Name,
		MechName:     pp.Mechanism.Name(),
		Observations: make([]Observation, len(conds)),
	}
	var d1, d2 float64
	durations := make([]float64, len(conds))
	var wg sync.WaitGroup
	sem := make(chan struct{}, pp.Workers)
	spawn := func(task func()) {
		wg.Add(1)
		//lint:ignore ctxleak bounded fork-join: every worker finishes and is joined before Profile returns
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			task()
		}()
	}
	spawn(func() { ds.ServiceRate, ds.ServiceSamples, d1 = pp.MeasureServiceRate() })
	spawn(func() { ds.MarginalRate, d2 = pp.MeasureMarginalRate() })
	for i, cond := range conds {
		spawn(func() {
			obs, dur := pp.RunCondition(cond, pp.Seed+uint64(i)*0x632be59bd9b4e019)
			ds.Observations[i] = obs
			durations[i] = dur
			m.done.Inc()
			m.condSeconds.Observe(dur)
		})
	}
	wg.Wait()
	m.serviceRate.Set(ds.ServiceRate)
	m.marginal.Set(ds.MarginalRate)
	// The same summation order as measuring the baselines first.
	ds.ProfilingSeconds = d1 + d2
	for _, d := range durations {
		ds.ProfilingSeconds += d
	}
	return ds
}
