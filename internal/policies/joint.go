package policies

// Joint discipline x sprint-policy search. The paper's MINRT search
// (Equation 4) anneals the sprint timeout under a fixed FIFO queue; once
// the discipline is a knob too, the right comparison optimizes the
// timeout *per discipline* and then compares the optima — a discipline
// changes which queries wait, so it shifts the best timeout along with
// the response time. Processor sharing has no timeout to anneal (it
// rejects sprinting), so its candidates are scored at the fixed
// no-sprint point instead.

import (
	"context"
	"fmt"

	"mdsprint/internal/explore"
	"mdsprint/internal/queuesim"
	"mdsprint/internal/sweep"
)

// JointCandidate is one (discipline, fan-out) point in the joint search
// space. A nil Dispatch (with Servers <= 1) keeps the single central
// queue.
type JointCandidate struct {
	Discipline queuesim.Discipline
	Servers    int
	Dispatch   queuesim.Dispatcher
}

// Label renders the candidate for tables: "srpt" or "fifo/jsq@4".
func (jc JointCandidate) Label() string {
	if jc.Servers > 1 && jc.Dispatch != nil {
		return fmt.Sprintf("%s/%s@%d", jc.Discipline, jc.Dispatch.Canon(), jc.Servers)
	}
	return jc.Discipline.String()
}

// JointOutcome is one candidate's optimized operating point.
type JointOutcome struct {
	Candidate JointCandidate
	// Timeout is the annealed sprint timeout (-1 for the ps candidates,
	// which run without sprinting).
	Timeout float64
	// MeanRT is the model-predicted mean response time at that timeout.
	MeanRT float64
	// Evaluations counts objective calls the annealer spent (0 for ps).
	Evaluations int
}

// JointSearch optimizes the sprint timeout for every candidate (via the
// batch annealer, cohorts scored through the memoizing sweep engine) and
// returns the per-candidate outcomes in input order plus the index of
// the winner — lowest optimized mean RT, earliest candidate on ties.
// Candidates search over timeout in [0, p99 of the no-sprint response
// time], the same window FewToMany scans.
func JointSearch(c Context, candidates []JointCandidate, opts explore.BatchOptions) ([]JointOutcome, int, error) {
	if len(candidates) == 0 {
		return nil, -1, fmt.Errorf("policies: joint search needs at least one candidate")
	}
	cc := c.withDefaults()
	if len(cc.Dataset.ServiceSamples) == 0 {
		return nil, -1, fmt.Errorf("policies: dataset has no service samples")
	}
	eng := sweep.Or(cc.Engine)
	maxTO := noSprintQuantile(cc, 0.99)
	rate := cc.Dataset.MarginalRate

	outcomes := make([]JointOutcome, len(candidates))
	for i, cand := range candidates {
		ctx := cc
		ctx.Discipline = cand.Discipline
		ctx.Servers = cand.Servers
		ctx.Dispatch = cand.Dispatch

		if cand.Discipline.Kind == queuesim.DiscPS {
			// No timeout knob: score the fixed no-sprint point.
			pred, err := eng.Evaluate(sweep.Task{
				Params: simParams(ctx, -1, 0, 0),
				Reps:   ctx.SimReps,
			})
			if err != nil {
				return nil, -1, fmt.Errorf("policies: %s: %w", cand.Label(), err)
			}
			outcomes[i] = JointOutcome{Candidate: cand, Timeout: -1, MeanRT: pred.MeanRT}
			continue
		}

		obj := func(pts [][]float64) ([]float64, error) {
			tasks := make([]sweep.Task, len(pts))
			for j, pt := range pts {
				tasks[j] = sweep.Task{
					Params: simParams(ctx, pt[0], ctx.BudgetPct, rate),
					Reps:   ctx.SimReps,
				}
			}
			return eng.MeanRTs(tasks)
		}
		// The paper's +-100 s neighbour window suits its 0-300 s search
		// space; this window is data-derived (p99 of the no-sprint RT),
		// so scale the neighbourhood with it or the annealer cannot
		// cross the space within its iteration budget.
		space := explore.Space{
			Lo:            []float64{0},
			Hi:            []float64{maxTO},
			NeighborRange: []float64{maxTO / 8},
		}
		res, err := explore.MinimizeBatchCtx(context.TODO(), obj, space, opts)
		if err != nil {
			return nil, -1, fmt.Errorf("policies: %s: %w", cand.Label(), err)
		}
		outcomes[i] = JointOutcome{
			Candidate:   cand,
			Timeout:     res.Point[0],
			MeanRT:      res.RT,
			Evaluations: res.Evaluations,
		}
	}

	best := 0
	for i := 1; i < len(outcomes); i++ {
		if outcomes[i].MeanRT < outcomes[best].MeanRT {
			best = i
		}
	}
	return outcomes, best, nil
}
