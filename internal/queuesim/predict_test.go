package queuesim

import (
	"math"
	"testing"

	"mdsprint/internal/dist"
	"mdsprint/internal/stats"
)

// oldPredict is the pre-selection Predict summary, kept here as the
// reference: one fresh Result per replication, the replications' RTs
// copied into one pooled slice, and stats.Summarize's copy-and-sort.
func oldPredict(t *testing.T, p Params, reps int) Prediction {
	t.Helper()
	all := make([][]float64, reps)
	r := NewRunner()
	for i := 0; i < reps; i++ {
		pi := p
		pi.Seed = repSeed(p.Seed, i)
		var res Result
		if err := r.RunInto(pi, &res); err != nil {
			t.Fatal(err)
		}
		all[i] = res.RTs
	}
	var pooled []float64
	for _, rts := range all {
		pooled = append(pooled, rts...)
	}
	sum := stats.Summarize(pooled)
	return Prediction{
		MeanRT: sum.Mean, P95RT: sum.P95, P99RT: sum.P99,
		Replications: reps, QueriesSimulated: len(pooled),
	}
}

// TestPredictMatchesPooledSummarize holds Predict to the old per-rep,
// pooled and Summarize computation bit for bit, for 1-4 replications,
// on a sprinting FIFO point and a heavy-tailed SRPT point. Repeating
// each call also checks that the pooled Runner's reused buffers carry
// nothing from one prediction into the next.
func TestPredictMatchesPooledSummarize(t *testing.T) {
	srpt := allocParams()
	srpt.Discipline = Discipline{Kind: DiscSRPT}
	srpt.Service = dist.NewEmpirical([]float64{0.01, 0.02, 0.02, 0.05, 0.3, 1.5})
	points := map[string]Params{"fifo": allocParams(), "srpt-empirical": srpt}
	bits := math.Float64bits
	for name, p := range points {
		for reps := 1; reps <= 4; reps++ {
			want := oldPredict(t, p, reps)
			for call := 0; call < 2; call++ {
				got, err := Predict(p, reps)
				if err != nil {
					t.Fatal(err)
				}
				if bits(got.MeanRT) != bits(want.MeanRT) || bits(got.P95RT) != bits(want.P95RT) ||
					bits(got.P99RT) != bits(want.P99RT) || got.Replications != want.Replications ||
					got.QueriesSimulated != want.QueriesSimulated {
					t.Errorf("%s reps=%d call %d: %+v, want %+v", name, reps, call, got, want)
				}
			}
		}
	}
}
