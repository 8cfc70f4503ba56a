package experiments

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"mdsprint/internal/dist"
	"mdsprint/internal/queuesim"
	"mdsprint/internal/stats"
	"mdsprint/internal/sweep"
)

// Fig11Point is one (queries-per-prediction, cores) measurement.
type Fig11Point struct {
	QueriesPerPrediction int
	Workers              int
	PredictionsPerMin    float64
	// CoV is the coefficient of variation of the predicted mean RT
	// across independent predictions — Figure 11's right axis, whose
	// knee locates the accuracy/throughput trade-off.
	CoV float64
}

// Fig11Result measures the timeout-aware simulator's prediction
// throughput and variance (Section 3.6: ~11.4x scaling from 1 to 12
// cores; variance knee at 100K simulated queries).
type Fig11Result struct {
	Points  []Fig11Point
	MaxCPUs int
	// Scaling is the many-core speedup over one core at the largest
	// query count measured on both.
	Scaling float64
}

// fig11Params is a representative sprinting scenario.
func fig11Params(n int, seed uint64) queuesim.Params {
	mu := 0.02
	return queuesim.Params{
		ArrivalRate: 0.75 * mu,
		Service:     dist.LogNormalFromMeanCV(1/mu, 0.3),
		ServiceRate: mu,
		SprintRate:  1.5 * mu,
		Timeout:     60, BudgetSeconds: 300, RefillTime: 200,
		NumQueries: n, Warmup: n / 10,
		Seed: seed,
	}
}

// Fig11 sweeps simulated queries per prediction and core counts.
func Fig11(lab *Lab) Fig11Result {
	res := Fig11Result{MaxCPUs: runtime.NumCPU()}
	counts := []int{1000, 10000, 100000}
	if lab.Scale.Name == "full" {
		counts = append(counts, 1000000)
	}
	workerSets := []int{1}
	if res.MaxCPUs > 1 {
		workerSets = append(workerSets, res.MaxCPUs)
	}
	// A dedicated engine per worker count, cache disabled: this figure
	// measures raw simulation throughput, and memoized hits would report
	// cache reads as predictions.
	engines := make([]*sweep.Engine, len(workerSets))
	for i, workers := range workerSets {
		engines[i] = sweep.New(sweep.Options{Workers: workers, CacheSize: -1})
	}
	perCore := map[int]map[int]float64{} // workers -> count -> preds/min
	for _, workers := range workerSets {
		perCore[workers] = map[int]float64{}
	}
	for _, n := range counts {
		// One prediction = SimReps replications pooled. Measure a batch
		// of predictions sharded across the worker pool.
		batch := 6
		if n >= 100000 {
			batch = 2
		}
		tasks := make([]sweep.Task, batch)
		for b := range tasks {
			tasks[b] = sweep.Task{
				Params: fig11Params(n, lab.Scale.Seed+uint64(b)*977),
				Reps:   lab.Scale.SimReps,
			}
		}
		// Keep the fastest of five timings per worker count, taking the
		// worker counts in turn: other processes on a shared host easily
		// stretch a window this short, and alternating exposes every
		// worker count to the same background load, so a burst cannot
		// land on one side of the scaling ratio only.
		elapsed := make([]float64, len(workerSets))
		for i := range elapsed {
			elapsed[i] = math.Inf(1)
		}
		for range 5 {
			for i, eng := range engines {
				// Collect first, as testing.B does before each run: a
				// cycle that starts inside the window takes one of the
				// workers' CPUs for its mark phase, which only a
				// many-worker batch would pay for.
				runtime.GC()
				start := time.Now()
				if _, err := eng.EvaluateAll(tasks); err != nil {
					panic(err)
				}
				elapsed[i] = math.Min(elapsed[i], time.Since(start).Minutes())
			}
		}
		for i, workers := range workerSets {
			perCore[workers][n] = float64(batch) / elapsed[i]
		}
	}
	for i, workers := range workerSets {
		for _, n := range counts {
			// CoV across extra independent predictions (cheap
			// single-rep runs) to see the variance knee.
			covTasks := make([]sweep.Task, 12)
			for b := range covTasks {
				covTasks[b] = sweep.Task{
					Params: fig11Params(n, lab.Scale.Seed+1000+uint64(b)*31),
					Reps:   1,
				}
			}
			means, err := engines[i].MeanRTs(covTasks)
			if err != nil {
				panic(err)
			}
			res.Points = append(res.Points, Fig11Point{
				QueriesPerPrediction: n,
				Workers:              workers,
				PredictionsPerMin:    perCore[workers][n],
				CoV:                  stats.CoV(means),
			})
		}
	}
	largest := counts[len(counts)-1]
	if one, ok := perCore[1][largest]; ok && one > 0 {
		res.Scaling = perCore[res.MaxCPUs][largest] / one
	}
	if res.MaxCPUs == 1 {
		res.Scaling = 1
	}
	return res
}

// Table renders throughput and variance.
func (r Fig11Result) Table() Table {
	t := Table{
		Title:   "Figure 11 — prediction throughput and variance of the timeout-aware simulator",
		Columns: []string{"queries/prediction", "workers", "predictions/min", "CoV of mean RT"},
	}
	for _, p := range r.Points {
		t.AddRow(
			fmt.Sprintf("%d", p.QueriesPerPrediction),
			fmt.Sprintf("%d", p.Workers),
			fmt.Sprintf("%.0f", p.PredictionsPerMin),
			fmt.Sprintf("%.3f", p.CoV),
		)
	}
	if r.MaxCPUs == 1 {
		t.AddNote("host has a single CPU: task-level sharding (the sweep engine's worker pool) is structural but unmeasurable here (paper: 11.4x on 12 cores)")
	} else {
		t.AddNote("multi-core scaling at the largest size: %s on %d cores (paper: 11.4x on 12 cores)",
			ratio(r.Scaling), r.MaxCPUs)
	}
	t.AddNote("paper: variance knee at ~100K simulated queries, ~100 predictions/min there (event-driven scheduling makes this implementation faster in absolute terms)")
	return t
}
