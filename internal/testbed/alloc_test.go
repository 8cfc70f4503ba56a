package testbed

import (
	"testing"

	"mdsprint/internal/mech"
	"mdsprint/internal/sprint"
	"mdsprint/internal/workload"
)

// runAllocs measures the heap allocations of one warmed testbed.Run of
// cfg with n measured queries.
func runAllocs(t *testing.T, cfg Config, n int) float64 {
	t.Helper()
	cfg.NumQueries = n
	cfg.Warmup = n / 10
	return testing.AllocsPerRun(20, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
}

// maxRunAllocs bounds the fixed per-run allocations (result, records,
// accountant, per-class sprint curves and service distributions).
const maxRunAllocs = 32

// TestRunZeroAllocsPerQuery pins the pooled testbed: a run allocates its
// result, its records and a fixed set of per-run objects, but nothing per
// simulated query, so the count is the same at 500 and at 5000 queries.
func TestRunZeroAllocsPerQuery(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	cases := map[string]Config{
		"sprinting mix": {
			Mix:       workload.MixII(),
			Mechanism: mech.CoreScale{},
			Policy: sprint.Policy{
				Timeout: 40, BudgetSeconds: 200, RefillTime: 600, Speedup: 1e9,
			},
			ArrivalRate: 0.8 * workload.MixII().SustainedRate(),
			Slots:       2,
			Seed:        3,
		},
		"no sprint": jacobiCfg(),
	}
	for name, cfg := range cases {
		small := runAllocs(t, cfg, 500)
		large := runAllocs(t, cfg, 5000)
		t.Logf("%s: %v allocs at 500 queries, %v at 5000", name, small, large)
		if large > small {
			t.Errorf("%s: %v allocs at 5000 queries > %v at 500: something allocates per query", name, large, small)
		}
		if small > maxRunAllocs {
			t.Errorf("%s: %v allocs per run, budget %d", name, small, maxRunAllocs)
		}
	}
}
