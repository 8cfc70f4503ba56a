package experiments

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"mdsprint/internal/colocate"
)

// TestFig13GoldenPlans pins Figure 13 bit for bit at Quick scale: the
// plan each of the three planners chooses for every workload of every
// combo (Fraction, Speedup, BudgetPct, RefillTime and Timeout by their
// exact bit patterns, plus Dedicated), and the number of workloads
// FillNode hosts per combo and planner. The planners are built exactly
// as Fig13 builds them.
func TestFig13GoldenPlans(t *testing.T) {
	l := lab()
	est := l.estimator()
	planners := []colocate.Planner{
		colocate.AWSPlanner(est),
		colocate.BudgetPlanner(est, colocate.AWSRefill),
		colocate.SprintPlanner(est, l.Scale.AnnealIter, l.Scale.Seed+97),
	}
	var b []byte
	u := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	f := func(v float64) { u(math.Float64bits(v)) }
	for _, combo := range Combos() {
		for _, planner := range planners {
			for _, w := range combo.Workloads {
				p, _ := planner(w)
				f(p.Fraction)
				f(p.Speedup)
				f(p.BudgetPct)
				f(p.RefillTime)
				f(p.Timeout)
				if p.Dedicated {
					u(1)
				} else {
					u(0)
				}
			}
			_, n := colocate.FillNode(combo.Workloads, planner)
			u(uint64(n))
		}
	}
	h := fnv.New64a()
	//lint:ignore errdrop fnv's Write is documented to never fail
	h.Write(b)
	const want = 0xc90401a137c1b5c7
	if got := h.Sum64(); got != want {
		t.Errorf("Figure 13 plan digest %#016x, want %#016x", got, uint64(want))
	}
}
