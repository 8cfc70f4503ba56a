package queuesim

// Allocation-budget tests: the pooled hot path must simulate queries with
// zero steady-state heap allocations when tracing is off. These are
// enforced budgets, not benchmarks — a regression fails the suite.

import (
	"testing"

	"mdsprint/internal/dist"
)

// allocParams exercises the full hot path: arrivals, timeouts, engages,
// budget exhaustion and refill, reschedules, departures.
func allocParams() Params {
	return Params{
		ArrivalRate:   9,
		ArrivalKind:   dist.KindPareto,
		Service:       dist.NewExponential(10),
		ServiceRate:   10,
		SprintRate:    20,
		Timeout:       0.05,
		BudgetSeconds: 2,
		RefillTime:    40,
		NumQueries:    800,
		Seed:          3,
	}
}

// TestRunnerZeroAllocsPerQuery pins the tentpole invariant: a warmed
// Runner replaying RunInto with a reused Result performs zero heap
// allocations for the entire run — event scheduling, query pooling, FIFO
// queueing, RNG reseeding, accountant resets and metrics flush included.
func TestRunnerZeroAllocsPerQuery(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	r := NewRunner()
	p := allocParams()
	var res Result
	// Warm every pool to its steady-state capacity.
	for i := 0; i < 3; i++ {
		if err := r.RunInto(p, &res); err != nil {
			t.Fatal(err)
		}
	}
	if res.Engages == 0 || res.Exhaustions == 0 {
		t.Fatalf("warmup run must exercise sprints (engages=%d exhaustions=%d)",
			res.Engages, res.Exhaustions)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := r.RunInto(p, &res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state RunInto allocated %.1f objects per run (%d queries), want 0",
			allocs, p.NumQueries)
	}
}

// TestRunnerZeroAllocsAcrossSeeds varies the seed per run (the RunReps
// pattern): reseeding must not reintroduce allocations.
func TestRunnerZeroAllocsAcrossSeeds(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	r := NewRunner()
	p := allocParams()
	var res Result
	for i := 0; i < 3; i++ {
		p.Seed = repSeed(3, i)
		if err := r.RunInto(p, &res); err != nil {
			t.Fatal(err)
		}
	}
	seed := 0
	allocs := testing.AllocsPerRun(10, func() {
		p.Seed = repSeed(1000, seed%3)
		seed++
		if err := r.RunInto(p, &res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("seed-varying RunInto allocated %.1f objects per run, want 0", allocs)
	}
}

// TestRunRepsIntoZeroAllocs pins the replication loop at zero
// steady-state allocations for both the FIFO ring and the heap-ordered
// SRPT path: with the caller holding the Result slice, the only
// allocations RunReps ever made (the slice header plus per-rep output
// vectors) disappear, closing the 17-allocs-per-call gap the bench
// baseline used to carry.
func TestRunRepsIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	for _, disc := range []Discipline{{Kind: DiscFIFO}, {Kind: DiscSRPT}} {
		t.Run(string(disc.canonical().Kind), func(t *testing.T) {
			p := allocParams()
			p.Discipline = disc
			out := make([]Result, 4)
			for i := 0; i < 3; i++ {
				if err := RunRepsInto(p, out); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(10, func() {
				if err := RunRepsInto(p, out); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state RunRepsInto(%s) allocated %.1f objects per call, want 0",
					disc, allocs)
			}
		})
	}
}

// TestFIFOBoundedLiveQueries is the regression test for the FIFO
// backing-array retention bug: the old head-shifting queue
// (s.queue = s.queue[1:]) kept every departed query reachable through
// the slice's backing array for the whole run. The pooled ring recycles
// slots, so the live high-water mark must track the actual queue depth —
// a small fraction of the total at moderate load — not the run length.
func TestFIFOBoundedLiveQueries(t *testing.T) {
	p := Params{
		ArrivalRate: 7, // rho = 0.7
		Service:     dist.NewExponential(10),
		ServiceRate: 10,
		Timeout:     -1,
		NumQueries:  20000,
		Seed:        17,
	}
	res := MustRun(p)
	if res.MaxLive <= 0 {
		t.Fatalf("MaxLive = %d, want positive", res.MaxLive)
	}
	if res.MaxLive >= p.NumQueries/10 {
		t.Fatalf("MaxLive = %d for %d queries at rho=0.7: live set grows with run length, pool is retaining departed queries",
			res.MaxLive, p.NumQueries)
	}
}

// TestPredictSerialZeroAllocs pins the sweep engine's prediction
// primitive: serial Predict replays on a pooled Runner that owns the
// replay result and the pooled response-time buffer, and takes its tails
// by in-place selection, so a steady-state prediction allocates nothing.
func TestPredictSerialZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	p := allocParams()
	for i := 0; i < 3; i++ {
		if _, err := Predict(p, 4); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Predict(p, 4); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state serial Predict allocated %.1f objects per call, want 0", allocs)
	}
}
