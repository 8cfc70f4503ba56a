package sweep

import (
	"mdsprint/internal/dist"
	"mdsprint/internal/queuesim"
	"mdsprint/internal/sprint"
)

// gridTasks expands a quick-scale Figure-10 policy grid into engine
// tasks: 4 utilizations x 3 timeouts x 3 budgets = 36 points at the
// paper's centroid levels, 2 replications each, with numQueries queries
// per run. Utilization is outermost and budget innermost; point i is
// seeded 1 + i*0x9e3779b97f4a7c15, the golden-ratio increment the
// simulator itself uses for per-replication streams.
func gridTasks(numQueries int) []Task {
	const (
		serviceRate = 1.0 / 90 // 40 qph, the paper's hi/low service split point
		sprintRate  = 1.0 / 30
		refillTime  = 500
	)
	var out []Task
	for _, u := range []float64{0.30, 0.50, 0.75, 0.95} {
		for _, to := range []float64{50, 100, 160} {
			for _, b := range []float64{0.20, 0.40, 0.80} {
				p := queuesim.Params{
					ArrivalRate:   u * serviceRate,
					Service:       dist.NewExponential(serviceRate),
					ServiceRate:   serviceRate,
					SprintRate:    sprintRate,
					Timeout:       to,
					BudgetSeconds: sprint.BudgetFromPercent(b, refillTime),
					RefillTime:    refillTime,
					NumQueries:    numQueries,
					Seed:          1 + uint64(len(out))*0x9e3779b97f4a7c15,
				}
				out = append(out, Task{Params: p, Reps: 2})
			}
		}
	}
	return out
}
