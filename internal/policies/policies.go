// Package policies implements the sprinting-policy baselines Section 4.3
// compares the model-driven approach against:
//
//   - big-burst: timeout 0, full sprint rate, a tight budget — every
//     arriving query sprints until the budget drains;
//   - small-burst: timeout 0, reduced sprint rate, enlarged budget;
//   - Few-to-Many (adapted from Haque et al.): offline-profiled marginal
//     sprint rate, then the largest timeout that still exhausts the
//     budget (speeding up the slowest queries);
//   - Adrenaline (adapted from Hsu et al.): timeout set to the 85th
//     percentile of non-sprinting response time.
//
// Every baseline is expressed against a profiled dataset and the model
// simulator, so comparisons with the model-driven search are apples to
// apples: no policy gets to peek at the testbed's hidden runtime effects.
package policies

import (
	"fmt"
	"math"

	"mdsprint/internal/dist"
	"mdsprint/internal/profiler"
	"mdsprint/internal/queuesim"
	"mdsprint/internal/stats"
	"mdsprint/internal/sweep"
)

// Context fixes the workload conditions (everything except the timeout/
// speedup/budget knobs a baseline sets) for baseline computation.
type Context struct {
	// Dataset supplies mu, mu_m and service samples.
	Dataset *profiler.Dataset
	// ArrivalRate in queries/second; ArrivalKind the family.
	ArrivalRate float64
	ArrivalKind dist.Kind
	// RefillTime and BudgetPct are the budget clause the baselines
	// adapt (big-burst shrinks it, small-burst enlarges it).
	RefillTime float64
	BudgetPct  float64
	// SimQueries, SimReps and Seed size the model simulations.
	SimQueries int
	SimReps    int
	Seed       uint64
	// Discipline selects the ready-queue ordering the workload runs
	// under (zero value: the paper's FIFO). Servers > 1 fans arrivals
	// across per-server queues via Dispatch; both zero values keep the
	// single central queue.
	Discipline queuesim.Discipline
	Servers    int
	Dispatch   queuesim.Dispatcher
	// Engine evaluates the model simulations; nil uses sweep.Shared(),
	// so settings revisited across baselines are memoized.
	Engine *sweep.Engine
}

func (c Context) withDefaults() Context {
	if c.SimQueries == 0 {
		c.SimQueries = 4000
	}
	if c.SimReps == 0 {
		c.SimReps = 2
	}
	if c.ArrivalKind == "" {
		c.ArrivalKind = dist.KindExponential
	}
	return c
}

// Setting is a fully resolved baseline policy in profiler vocabulary.
type Setting struct {
	Name      string
	Timeout   float64
	BudgetPct float64
	// Speedup commands the sprint rate (0 = mechanism/profile maximum).
	Speedup float64
}

// simParams builds simulator parameters for a setting, at the given
// sprint rate.
func simParams(c Context, timeout, budgetPct, sprintRate float64) queuesim.Params {
	return queuesim.Params{
		ArrivalRate:   c.ArrivalRate,
		ArrivalKind:   c.ArrivalKind,
		Service:       c.Dataset.ServiceDist(),
		ServiceRate:   c.Dataset.ServiceRate,
		SprintRate:    sprintRate,
		Timeout:       timeout,
		BudgetSeconds: budgetPct * c.RefillTime,
		RefillTime:    c.RefillTime,
		NumQueries:    c.SimQueries,
		Warmup:        c.SimQueries / 10,
		Discipline:    c.Discipline,
		Servers:       c.Servers,
		Dispatch:      c.Dispatch,
		Seed:          c.Seed,
	}
}

// BigBurst is the timeout-0, full-rate baseline.
func BigBurst(c Context) Setting {
	return Setting{Name: "big-burst", Timeout: 0, BudgetPct: c.BudgetPct}
}

// SmallBurst halves the sprint-rate gain and doubles the budget, the
// Section 4.3 variant (44 qph sprint rate instead of 74, budget for twice
// the executions).
func SmallBurst(c Context) Setting {
	cc := c.withDefaults()
	fullSpeedup := cc.Dataset.MarginalSpeedup()
	// Scale the speedup toward 1 by the paper's ratio (44/74 of the
	// sprint rate above sustained).
	reduced := 1 + (fullSpeedup-1)*0.6
	budget := math.Min(cc.BudgetPct*2, 1.0)
	return Setting{Name: "small-burst", Timeout: 0, BudgetPct: budget, Speedup: reduced}
}

// FewToMany profiles offline (the dataset's marginal rate) and returns
// the largest timeout that still exhausts the sprinting budget, scanning
// timeouts from slowest-queries-first downward.
func FewToMany(c Context) (Setting, error) {
	cc := c.withDefaults()
	if len(cc.Dataset.ServiceSamples) == 0 {
		return Setting{}, fmt.Errorf("policies: dataset has no service samples")
	}
	// Candidate timeouts: spread over [0, ~p99 of no-sprint RT].
	maxTO := noSprintQuantile(cc, 0.99)
	const steps = 24
	exhausted := func(timeout float64) bool {
		p := simParams(cc, timeout, cc.BudgetPct, cc.Dataset.MarginalRate)
		res := queuesim.MustRun(p)
		return res.BudgetUtilization(p) >= 0.90
	}
	for i := steps; i >= 0; i-- {
		to := maxTO * float64(i) / steps
		if exhausted(to) {
			return Setting{Name: "few-to-many", Timeout: to, BudgetPct: cc.BudgetPct}, nil
		}
	}
	return Setting{Name: "few-to-many", Timeout: 0, BudgetPct: cc.BudgetPct}, nil
}

// Adrenaline sets the timeout to the 85th percentile of non-sprinting
// response time. "Non-sprinting" references normal-speed operation: on a
// throttled platform that is the unthrottled (marginal-rate) service —
// otherwise every query would exceed the threshold and tail-targeting
// degenerates.
func Adrenaline(c Context) (Setting, error) {
	cc := c.withDefaults()
	if len(cc.Dataset.ServiceSamples) == 0 {
		return Setting{}, fmt.Errorf("policies: dataset has no service samples")
	}
	return Setting{
		Name:      "adrenaline",
		Timeout:   normalSpeedQuantile(cc, 0.85),
		BudgetPct: cc.BudgetPct,
	}, nil
}

// noSprintQuantile simulates the context without sprinting and returns
// the q-th response-time quantile.
func noSprintQuantile(c Context, q float64) float64 {
	p := simParams(c, -1, 0, 0)
	res := queuesim.MustRun(p)
	return stats.Quantile(res.RTs, q)
}

// normalSpeedQuantile simulates the workload at its unthrottled
// (marginal) rate with no sprinting and returns the q-th response-time
// quantile. On non-throttled platforms (marginal close to sustained) it
// approaches noSprintQuantile.
func normalSpeedQuantile(c Context, q float64) float64 {
	scale := c.Dataset.ServiceRate / c.Dataset.MarginalRate
	scaled := make([]float64, len(c.Dataset.ServiceSamples))
	for i, s := range c.Dataset.ServiceSamples {
		scaled[i] = s * scale
	}
	p := simParams(c, -1, 0, 0)
	p.Service = dist.NewEmpirical(scaled)
	p.ServiceRate = c.Dataset.MarginalRate
	res := queuesim.MustRun(p)
	return stats.Quantile(res.RTs, q)
}
