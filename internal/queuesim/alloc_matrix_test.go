package queuesim_test

// The discipline × dispatcher allocation matrix: selecting any queueing
// discipline or any multi-queue dispatcher must keep a warmed RunInto at
// zero steady-state heap allocations — the heap ready-queue, the SERPT
// prediction stream, processor sharing's replan cycle, and every real
// dispatcher's Pick included. This lives in the external test package so
// the matrix exercises the actual internal/queuesim/dispatch
// implementations rather than in-package mirrors.

import (
	"testing"

	"mdsprint/internal/dist"
	"mdsprint/internal/queuesim"
	"mdsprint/internal/queuesim/dispatch"
)

// matrixParams mirrors allocParams: a tight refilling budget that
// exercises arrivals, timeouts, engages, exhaustion, refills and
// departures in 800 queries.
func matrixParams() queuesim.Params {
	return queuesim.Params{
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

func TestDisciplineDispatchZeroAllocsMatrix(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	mustRnd := func(d int) queuesim.Dispatcher {
		r, err := dispatch.RandomD(d)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	dispatchers := []struct {
		name string
		d    queuesim.Dispatcher // nil = single server
	}{
		{"single", nil},
		{"jsq", dispatch.JSQ()},
		{"lwl", dispatch.LeastWork()},
		{"rr", dispatch.RoundRobin()},
		{"rnd2", mustRnd(2)},
	}
	disciplines := []string{"fifo", "lifo", "srpt", "serpt(0.3)", "ps"}

	for _, ds := range dispatchers {
		for _, spec := range disciplines {
			ds, spec := ds, spec
			t.Run(ds.name+"/"+spec, func(t *testing.T) {
				p := matrixParams()
				var err error
				if p.Discipline, err = queuesim.ParseDiscipline(spec); err != nil {
					t.Fatal(err)
				}
				if p.Discipline.Kind == queuesim.DiscPS {
					// PS rejects sprinting; the matrix still pins its
					// event-driven sharing cycle at zero allocations.
					p.Timeout = -1
					p.BudgetSeconds = 0
				}
				if ds.d != nil {
					p.Servers = 2
					p.Dispatch = ds.d
				}
				r := queuesim.NewRunner()
				var res queuesim.Result
				for i := 0; i < 3; i++ {
					if err := r.RunInto(p, &res); err != nil {
						t.Fatal(err)
					}
				}
				allocs := testing.AllocsPerRun(10, func() {
					if err := r.RunInto(p, &res); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Fatalf("steady-state RunInto allocated %.1f objects per run with discipline=%s dispatch=%s, want 0",
						allocs, spec, ds.name)
				}
			})
		}
	}
}
