package testbed

import (
	"math"
	"runtime"
	"testing"
	"unsafe"

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

// maxRunAllocs bounds the fixed per-run allocations: Run's result and
// its records. The pooled server memoizes its sprint curves and
// distributions and resets its accountant in place.
const maxRunAllocs = 2

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

// bytesPerRun returns the heap bytes one warmed call of f allocates:
// the least, over three rounds, of the mean over n calls. A collection
// during a round may empty the testbed's server pool, and the refill is
// not steady state.
func bytesPerRun(f func(), n int) uint64 {
	f()
	least := uint64(math.MaxUint64)
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/uint64(n))
	}
	return least
}

// TestRunIntoZeroAllocsRecords pins RunInto's reuse: replaying a config
// into one Result allocates nothing at all, so its bytes per run stay a
// small fraction of the record storage and do not grow with the query
// count, while Run allocates the storage every time.
func TestRunIntoZeroAllocsRecords(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	cfg := jacobiCfg()
	cfg.Policy = sprint.Policy{Timeout: 20, BudgetSeconds: 200, RefillTime: 600, Speedup: 1e9}
	var warm Result
	if allocs := testing.AllocsPerRun(20, func() {
		if err := RunInto(cfg, &warm); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("RunInto of a repeated config: %v allocs per run, want 0", allocs)
	}
	into := func(n int) uint64 {
		c := cfg
		c.NumQueries, c.Warmup = n, n/10
		var res Result
		var first *QueryRecord
		return bytesPerRun(func() {
			if err := RunInto(c, &res); err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = &res.Queries[0]
			} else if &res.Queries[0] != first {
				t.Fatal("RunInto moved the records to new storage")
			}
		}, 20)
	}
	records := uint64(5500) * uint64(unsafe.Sizeof(QueryRecord{}))
	small, large := into(500), into(5000)
	fresh := bytesPerRun(func() { MustRun(cfg) }, 5)
	t.Logf("RunInto: %d B/run at 500 queries, %d at 5000; Run: %d B/run at 2200; records of 5500 queries: %d B",
		small, large, fresh, records)
	if large >= records/10 {
		t.Errorf("RunInto allocated %d B per run at 5000 queries, records would be %d B", large, records)
	}
	if large > small+1024 {
		t.Errorf("RunInto allocates per query: %d B per run at 5000 queries, %d at 500", large, small)
	}
	if need := uint64(2200) * uint64(unsafe.Sizeof(QueryRecord{})); fresh < need {
		t.Errorf("Run allocated %d B per run, less than its %d B of fresh records", fresh, need)
	}
}
