package profiler

import (
	"mdsprint/internal/dist"
)

// Grid is a cluster-sampling grid over workload conditions and sprinting
// policies. Its cross product yields the profiled Conditions.
type Grid struct {
	Utilizations []float64
	ArrivalKinds []dist.Kind
	Timeouts     []float64
	RefillTimes  []float64
	BudgetPcts   []float64
}

// PaperGrid returns the cluster-sampling centroids listed in Section 3:
// arrival rates 30/50/75/95% of service rate, exponential and Pareto
// arrivals, timeouts 50-160 s, refill times 50-1000 s, and budgets
// 14-80% of sustained capacity per refill window.
func PaperGrid() Grid {
	return Grid{
		Utilizations: []float64{0.30, 0.50, 0.75, 0.95},
		ArrivalKinds: []dist.Kind{dist.KindExponential, dist.KindPareto},
		Timeouts:     []float64{50, 60, 70, 80, 120, 130, 160},
		RefillTimes:  []float64{50, 200, 500, 800, 1000},
		BudgetPcts:   []float64{0.14, 0.16, 0.18, 0.20, 0.40, 0.60, 0.80},
	}
}

// DenseGrid extends PaperGrid with the extra centroids Section 3.3 adds to
// fix core-scaling bias: 60% and 85% arrival rates.
func DenseGrid() Grid {
	g := PaperGrid()
	g.Utilizations = []float64{0.30, 0.50, 0.60, 0.75, 0.85, 0.95}
	return g
}

// SmallGrid is a reduced grid for tests and quick runs.
func SmallGrid() Grid {
	return Grid{
		Utilizations: []float64{0.30, 0.75},
		ArrivalKinds: []dist.Kind{dist.KindExponential},
		Timeouts:     []float64{50, 120},
		RefillTimes:  []float64{200, 800},
		BudgetPcts:   []float64{0.20, 0.60},
	}
}

// Conditions expands the grid's cross product in deterministic order:
// utilization varies slowest and the budget fastest.
func (g Grid) Conditions() []Condition {
	out := make([]Condition, g.size())
	for i := range out {
		out[i] = g.condition(i)
	}
	return out
}

// Sample draws n conditions from the grid's cross product without
// replacement (all of them if n exceeds the total), deterministically for
// a given seed. Profiling every centroid is expensive; the paper samples
// 5 arrival rates, 8 timeouts and 9 budgets per workload.
func (g Grid) Sample(n int, seed uint64) []Condition {
	total := g.size()
	if n >= total {
		return g.Conditions()
	}
	r := dist.NewRNG(seed)
	perm := r.Perm(total)
	out := make([]Condition, n)
	for i := range out {
		out[i] = g.condition(perm[i])
	}
	return out
}

// size is the number of conditions in the grid's cross product.
func (g Grid) size() int {
	return len(g.Utilizations) * len(g.ArrivalKinds) * len(g.Timeouts) * len(g.RefillTimes) * len(g.BudgetPcts)
}

// condition returns the cross product's idx-th condition, decoding idx
// digit by digit with the budget varying fastest.
func (g Grid) condition(idx int) Condition {
	var c Condition
	idx, c.BudgetPct = digit(idx, g.BudgetPcts)
	idx, c.RefillTime = digit(idx, g.RefillTimes)
	idx, c.Timeout = digit(idx, g.Timeouts)
	idx, c.ArrivalKind = digit(idx, g.ArrivalKinds)
	_, c.Utilization = digit(idx, g.Utilizations)
	return c
}

// digit splits idx into its lowest mixed-radix digit, which it returns
// as an element of axis, and the remaining higher digits.
func digit[T any](idx int, axis []T) (int, T) {
	return idx / len(axis), axis[idx%len(axis)]
}

// SplitObservations partitions a dataset's observations into train and
// test sets with the given train fraction (the paper uses 80/20 and
// 90/10), deterministically.
func SplitObservations(obs []Observation, trainFrac float64, seed uint64) (train, test []Observation) {
	r := dist.NewRNG(seed)
	perm := r.Perm(len(obs))
	nTrain := int(float64(len(obs)) * trainFrac)
	train = make([]Observation, 0, nTrain)
	test = make([]Observation, 0, len(obs)-nTrain)
	for i, idx := range perm {
		if i < nTrain {
			train = append(train, obs[idx])
		} else {
			test = append(test, obs[idx])
		}
	}
	return train, test
}
