package core

import (
	"testing"

	"mdsprint/internal/dist"
	"mdsprint/internal/forest"
	"mdsprint/internal/profiler"
)

// TestHybridPredictZeroAllocs pins a memo-hit hybrid prediction at zero
// allocations: the features are encoded on the stack, the forest reads
// them in place and the sweep engine answers from its memo.
func TestHybridPredictZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	r := dist.NewRNG(5)
	svc := make([]float64, 200)
	for i := range svc {
		svc[i] = 50 + 100*r.Float64()
	}
	ds := &profiler.Dataset{ServiceRate: 0.01, MarginalRate: 0.02, ServiceSamples: svc}
	var samples []forest.Sample
	for i := 0; i < 40; i++ {
		sc := Scenario{Cond: profiler.Condition{
			Utilization: 0.3 + 0.5*r.Float64(), ArrivalKind: dist.KindExponential,
			Timeout: 100 * r.Float64(), RefillTime: 200, BudgetPct: 0.3,
		}}
		samples = append(samples, forest.Sample{Features: Features(ds, sc), X: ds.MarginalRate, Y: ds.MarginalRate * (0.8 + 0.4*r.Float64())})
	}
	f, err := forest.Train(samples, FeatureNames(), forest.Config{Trees: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHybridFromForest(f, 400, 1, 1, 3)
	sc := Scenario{Cond: profiler.Condition{
		Utilization: 0.5, ArrivalKind: dist.KindExponential,
		Timeout: 60, RefillTime: 200, BudgetPct: 0.3,
	}}
	want, err := h.Predict(ds, sc) // the memo miss
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if got, err := h.Predict(ds, sc); err != nil || got != want {
			t.Fatalf("memo-hit prediction %+v, %v; want %+v", got, err, want)
		}
	})
	if allocs != 0 {
		t.Fatalf("memo-hit Hybrid.Predict allocates %v times, want 0", allocs)
	}
}
