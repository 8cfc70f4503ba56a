// Package colocate implements Section 4.4: packing workloads onto
// burstable instances (AWS T2-style CPU throttling) under response-time
// SLOs, and comparing revenue per node across sprinting policies:
//
//   - AWS: every workload gets the fixed published policy — 20% of a
//     core sustained, 5x sprint rate, 720 sprint-seconds per hour;
//   - model-driven budgeting: per-workload sustained share, sprint rate
//     and budget chosen to meet the SLO with minimal CPU commitment;
//   - model-driven sprinting: budgeting plus timeout exploration.
//
// A workload whose policy cannot meet its SLO does not colocate: it runs
// on a dedicated node (the paper's "essentially making the server a
// dedicated host"). Nodes never oversubscribe: the sum of sustained
// shares plus expected sprint surplus stays within one CPU.
package colocate

import (
	"context"
	"fmt"
	"math"
	"sort"

	"mdsprint/internal/dist"
	"mdsprint/internal/explore"
	"mdsprint/internal/queuesim"
	"mdsprint/internal/sprint"
	"mdsprint/internal/sweep"
	"mdsprint/internal/workload"
)

// PricePerHour is AWS's published T2.small price per workload-hour.
const PricePerHour = 0.026

// SLOFactor is the paper's response-time clause: throttled response time
// may exceed the unthrottled baseline by at most 15%.
const SLOFactor = 1.15

// AWSRefill is the budget window of the published policy: 720
// sprint-seconds accrue per hour.
const AWSRefill = 3600.0

// Workload is one tenant service to host.
type Workload struct {
	Name  string
	Class *workload.Class
	// Utilization is the arrival rate as a fraction of the T2.small
	// sustained rate (20% of the class's full-speed throughput), the
	// workload's fixed demand.
	Utilization float64
	// ArrivalCV is the coefficient of variation of interarrival times.
	// 1 (or 0) is Poisson; cloud tenant traffic is burstier — the
	// default used by the Section 4.4 experiments is BurstyArrivalCV.
	// Burstiness is what breaks fixed sprinting policies: a burst
	// drains the budget and queries then crawl at the throttled rate.
	ArrivalCV float64
}

// BurstyArrivalCV is the default interarrival coefficient of variation
// for colocated tenant workloads.
const BurstyArrivalCV = 3.0

// interarrival returns the workload's interarrival distribution.
func (w Workload) interarrival() dist.Dist {
	cv := w.ArrivalCV
	if cv <= 1 {
		return dist.NewExponential(w.ArrivalRate())
	}
	return dist.HyperexponentialFromMeanCV(1/w.ArrivalRate(), cv)
}

// ArrivalRate returns the workload's arrival rate in queries/second.
func (w Workload) ArrivalRate() float64 {
	return w.Utilization * 0.20 * sprint.QPH(w.Class.BurstQPH)
}

// FullRate returns the class's unthrottled processing rate in
// queries/second (the throttle mechanism's 100%-CPU speed).
func (w Workload) FullRate() float64 { return sprint.QPH(w.Class.BurstQPH) }

// Plan is one workload's hosting policy.
type Plan struct {
	// Fraction is the sustained CPU share (throttle fraction).
	Fraction float64
	// Speedup is the sprint-rate multiplier over the sustained rate.
	Speedup float64
	// BudgetPct is sprint-seconds accrued per second (budget capacity
	// over the refill window); RefillTime is the window in seconds.
	BudgetPct  float64
	RefillTime float64
	// Timeout triggers sprints; 0 sprints every query (AWS-style).
	Timeout float64
	// Dedicated marks a workload that could not meet its SLO under
	// any throttled plan and occupies a full node.
	Dedicated bool
}

// AWSPlan is the published fixed policy.
func AWSPlan() Plan {
	return Plan{Fraction: 0.20, Speedup: 5, BudgetPct: 0.20, RefillTime: AWSRefill, Timeout: 0}
}

// CPUCommitment is the node capacity the plan reserves: the sustained
// share plus the time-averaged sprint surplus (budget accrual times the
// extra CPU a sprint uses).
func (p Plan) CPUCommitment() float64 {
	if p.Dedicated {
		return 1
	}
	return p.Fraction + p.BudgetPct*p.Fraction*(p.Speedup-1)
}

func (p Plan) String() string {
	if p.Dedicated {
		return "Plan{dedicated}"
	}
	return fmt.Sprintf("Plan{cpu=%.0f%% sprint=%.2gx budget=%.0f%% timeout=%.0fs commit=%.2f}",
		p.Fraction*100, p.Speedup, p.BudgetPct*100, p.Timeout, p.CPUCommitment())
}

// RTEstimator predicts a workload's mean response time under a plan.
// Production use wires the model-driven estimator; tests may substitute
// closed forms.
type RTEstimator interface {
	MeanRT(w Workload, p Plan) float64
	// BaselineRT is the unthrottled response time the SLO references.
	BaselineRT(w Workload) float64
}

// BatchRTEstimator is an RTEstimator that can score many plans in one
// call. Planners use it to hand whole candidate chunks to the sweep
// engine, which shards the simulations and memoizes re-scored plans.
type BatchRTEstimator interface {
	RTEstimator
	MeanRTs(w Workload, plans []Plan) []float64
}

// SimEstimator estimates response times with the timeout-aware queue
// simulator, using the class's service model at the plan's throttled
// rate — the model-driven path of Section 4.4.
type SimEstimator struct {
	SimQueries int
	SimReps    int
	Seed       uint64
	// Engine evaluates (and memoizes) the simulations; nil uses
	// sweep.Shared().
	Engine *sweep.Engine
}

func (e SimEstimator) Params(w Workload, p Plan) queuesim.Params {
	queries := e.SimQueries
	if queries == 0 {
		queries = 3000
	}
	mu := p.Fraction * w.FullRate()
	speedup := math.Min(p.Speedup, w.Class.MaxThrottleSpeedup)
	return queuesim.Params{
		ArrivalRate:   w.ArrivalRate(),
		Arrival:       w.interarrival(),
		Service:       dist.LogNormalFromMeanCV(1/mu, w.Class.ServiceCV),
		ServiceRate:   mu,
		SprintRate:    speedup * mu,
		Timeout:       p.Timeout,
		BudgetSeconds: p.BudgetPct * p.RefillTime,
		RefillTime:    p.RefillTime,
		NumQueries:    queries,
		Warmup:        queries / 10,
		Seed:          e.Seed,
	}
}

func (e SimEstimator) reps() int {
	if e.SimReps == 0 {
		return 2
	}
	return e.SimReps
}

// MeanRT simulates the workload under the plan.
func (e SimEstimator) MeanRT(w Workload, p Plan) float64 {
	pred, err := sweep.Or(e.Engine).Evaluate(sweep.Task{Params: e.Params(w, p), Reps: e.reps()})
	if err != nil {
		panic(fmt.Sprintf("colocate: %v", err))
	}
	return pred.MeanRT
}

// MeanRTs scores a batch of plans as one sweep, in plan order.
func (e SimEstimator) MeanRTs(w Workload, plans []Plan) []float64 {
	tasks := make([]sweep.Task, len(plans))
	for i, p := range plans {
		tasks[i] = sweep.Task{Params: e.Params(w, p), Reps: e.reps()}
	}
	rts, err := sweep.Or(e.Engine).MeanRTs(tasks)
	if err != nil {
		panic(fmt.Sprintf("colocate: %v", err))
	}
	return rts
}

// meanRTs batch-scores plans through a BatchRTEstimator, falling back to
// serial MeanRT calls — the results are identical either way; only
// sharding and memoization differ.
func meanRTs(est RTEstimator, w Workload, plans []Plan) []float64 {
	if be, ok := est.(BatchRTEstimator); ok {
		return be.MeanRTs(w, plans)
	}
	out := make([]float64, len(plans))
	for i, p := range plans {
		out[i] = est.MeanRT(w, p)
	}
	return out
}

// scoreChunk is how many candidate plans the planners score per batch:
// enough to keep a worker pool busy, small enough to bound the work
// evaluated past the first (cheapest) SLO-meeting plan.
const scoreChunk = 8

// BaselineRT simulates the unthrottled workload (full CPU, no sprints).
func (e SimEstimator) BaselineRT(w Workload) float64 {
	return e.MeanRT(w, Plan{Fraction: 1, Speedup: 1, RefillTime: AWSRefill, Timeout: -1})
}

// MeetsSLO reports whether the plan keeps the workload within SLOFactor
// of its unthrottled response time.
func MeetsSLO(w Workload, p Plan, est RTEstimator) bool {
	if p.Dedicated {
		return true
	}
	return est.MeanRT(w, p) <= SLOFactor*est.BaselineRT(w)
}

// Planner chooses a plan for one workload; ok=false means no throttled
// plan met the SLO and the workload needs a dedicated node.
type Planner func(w Workload) (Plan, bool)

// AWSPlanner applies the fixed policy, falling back to a dedicated node
// when it violates the SLO.
func AWSPlanner(est RTEstimator) Planner {
	return func(w Workload) (Plan, bool) {
		p := AWSPlan()
		if MeetsSLO(w, p, est) {
			return p, true
		}
		return Plan{Dedicated: true}, false
	}
}

// searchGrids for the model-driven planners.
var (
	planFractions = []float64{0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.50}
	planBudgets   = []float64{0.08, 0.10, 0.12, 0.14, 0.16, 0.18, 0.20, 0.25, 0.30, 0.40}
	// planRefills are the budget windows the full sprinting planner may
	// choose. Capacity (rate x window) absorbs bursts while commitment
	// depends only on the rate, so longer windows are pure upside until
	// bursts outlast them.
	planRefills = []float64{AWSRefill, 4 * AWSRefill, 8 * AWSRefill}
)

// candidates enumerates plans ordered by CPU commitment, cheapest first.
// refills selects the budget windows to consider (model-driven budgeting
// keeps AWS's hourly window; the sprinting planner explores longer ones).
func candidates(w Workload, refills []float64) []Plan {
	var out []Plan
	for _, f := range planFractions {
		speedup := math.Min(1/f, w.Class.MaxThrottleSpeedup)
		for _, b := range planBudgets {
			for _, r := range refills {
				out = append(out, Plan{
					Fraction: f, Speedup: speedup,
					BudgetPct: b, RefillTime: r, Timeout: 0,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ci, cj := out[i].CPUCommitment(), out[j].CPUCommitment()
		if ci < cj {
			return true
		}
		if ci > cj {
			return false
		}
		// Same commitment: prefer the larger budget capacity (longer
		// window), which can only help the SLO.
		return out[i].RefillTime > out[j].RefillTime
	})
	return out
}

// BudgetPlanner is model-driven budgeting (Section 4.4's middle bar):
// enlarge the sprint rate by shrinking the sustained share, searching for
// the cheapest (fraction, budget) combination that meets the SLO within
// AWS's hourly budget window. Timeout stays 0 — every query sprints.
func BudgetPlanner(est RTEstimator, refill float64) Planner {
	if refill <= 0 {
		refill = AWSRefill
	}
	return func(w Workload) (Plan, bool) {
		base := est.BaselineRT(w)
		cands := candidates(w, []float64{refill})
		for i := 0; i < len(cands); i += scoreChunk {
			end := i + scoreChunk
			if end > len(cands) {
				end = len(cands)
			}
			rts := meanRTs(est, w, cands[i:end])
			for j, rt := range rts {
				if rt <= SLOFactor*base {
					return cands[i+j], true
				}
			}
		}
		return Plan{Dedicated: true}, false
	}
}

// SprintPlanner is full model-driven sprinting: beyond budgeting it
// explores the timing dimensions of the policy space — sprint timeouts
// (annealed per Section 4.2) and budget windows — uncovering plans that
// meet the SLO at lower CPU commitments than any timeout-0, hourly-window
// policy.
func SprintPlanner(est RTEstimator, annealIter int, seed uint64) Planner {
	if annealIter == 0 {
		annealIter = 40
	}
	return func(w Workload) (Plan, bool) {
		base := est.BaselineRT(w)
		slo := SLOFactor * base
		maxTO := 4 / (w.Class.BurstQPH / 3600) // ~4 unthrottled service times
		cands := candidates(w, planRefills)
		for i := 0; i < len(cands); i += scoreChunk {
			end := i + scoreChunk
			if end > len(cands) {
				end = len(cands)
			}
			rts := meanRTs(est, w, cands[i:end])
			for j, rt0 := range rts {
				p := cands[i+j]
				if rt0 <= slo {
					return p, true
				}
				// A timeout redistributes budget; it cannot rescue a
				// plan that misses the SLO by a wide margin.
				if rt0 > 1.8*slo {
					continue
				}
				// Anneal the timeout, scoring proposal cohorts as one
				// sweep. The trajectory is cohort-invariant, so the
				// chosen timeout does not depend on the estimator's
				// batching or the engine's worker count.
				res, err := explore.MinimizeTimeoutBatchCtx(context.TODO(), func(tos []float64) ([]float64, error) {
					variants := make([]Plan, len(tos))
					for k, to := range tos {
						variants[k] = p
						variants[k].Timeout = to
					}
					return meanRTs(est, w, variants), nil
				}, 0, maxTO, explore.BatchOptions{Options: explore.Options{MaxIter: annealIter, Seed: seed}})
				if err != nil {
					// Unreachable: the objective never errs and the
					// context is never done.
					panic(err)
				}
				if res.RT <= slo {
					p.Timeout = res.Point[0]
					return p, true
				}
			}
		}
		return Plan{Dedicated: true}, false
	}
}

// FillNode hosts as many workloads from the combo on a single node as
// commitments allow, in order — Figure 13's per-node packing. A workload
// whose planner fails the SLO gets a dedicated plan (commitment 1), so it
// can only occupy an otherwise-empty node — the paper's "essentially
// making the server a dedicated host". It returns the assignments and the
// count.
func FillNode(ws []Workload, planner Planner) ([]Assignment, int) {
	var out []Assignment
	used := 0.0
	for _, w := range ws {
		plan, _ := planner(w)
		if used+plan.CPUCommitment() > 1.0+1e-9 {
			continue
		}
		used += plan.CPUCommitment()
		out = append(out, Assignment{Workload: w, Plan: plan})
	}
	return out, len(out)
}

// Assignment is one hosted workload with its plan.
type Assignment struct {
	Workload Workload
	Plan     Plan
}
