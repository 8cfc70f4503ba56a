package queuesim

import (
	"math"
	"testing"

	"mdsprint/internal/dist"
)

// TestRunRepKeepsAPathPerReplication checks that a Runner replaying
// several replications in turn, as Predict and RunRepsInto do, keeps
// each replication's sample path: a pass under a new policy draws
// nothing from the run's RNG, which stays as reseeded, and still matches
// a fresh Runner bit for bit. A replication whose seed changes draws its
// path again, and so does a return to the old seed.
func TestRunRepKeepsAPathPerReplication(t *testing.T) {
	const reps = 3
	r := NewRunner()
	var got, want Result
	run := func(pass int, seed uint64, timeout float64, wantReplay bool) {
		t.Helper()
		for i := 0; i < reps; i++ {
			p := allocParams()
			p.Seed = repSeed(seed, i)
			p.Timeout = timeout
			if err := r.runRep(p, i, &got); err != nil {
				t.Fatal(err)
			}
			var reseeded dist.RNG
			reseeded.Reseed(p.Seed)
			if replayed := r.rng == reseeded; replayed != wantReplay {
				t.Fatalf("pass %d, replication %d: replayed %v, want %v", pass, i, replayed, wantReplay)
			}
			if err := NewRunner().RunInto(p, &want); err != nil {
				t.Fatal(err)
			}
			if len(got.RTs) != len(want.RTs) || got.Engages != want.Engages ||
				math.Float64bits(got.SprintSeconds) != math.Float64bits(want.SprintSeconds) {
				t.Fatalf("pass %d, replication %d: differs from a fresh Runner", pass, i)
			}
			for j := range got.RTs {
				if math.Float64bits(got.RTs[j]) != math.Float64bits(want.RTs[j]) {
					t.Fatalf("pass %d, replication %d: RT %d differs from a fresh Runner", pass, i, j)
				}
			}
		}
	}
	run(0, 3, 0.05, false)
	run(1, 3, 0.2, true)
	run(2, 3, -1, true)
	run(3, 4, 0.05, false)
	run(4, 3, 0.05, false)
	run(5, 3, 0.12, true)
}
