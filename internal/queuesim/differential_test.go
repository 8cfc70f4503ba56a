package queuesim

// Differential equivalence suite: the pooled production engine
// (queuesim.go on sim.PooledEngine) must produce bit-identical output to
// the preserved heap-and-closure reference implementation (reference.go
// on sim.Engine) — response-time and queueing-time vectors, every scalar
// in Result, and the full tracer event sequence — across policies, refill
// modes, arrival processes and seeds. Nothing here tolerates epsilon:
// the two implementations share the RNG draw order, the accountant call
// order and the (time, seq) event order, so any divergence is a bug, not
// noise.

import (
	"math"
	"testing"

	"mdsprint/internal/dist"
	"mdsprint/internal/obs"
	"mdsprint/internal/sprint"
)

// diffSeeds are the seeds every differential config runs under.
var diffSeeds = []uint64{1, 7, 42}

// diffConfigs cover the simulator's behavioural axes: sprinting off, each
// refill mode, multiple slots, heavy-tailed arrivals with budget
// exhaustion, slowdown "sprints" (speedup < 1) and warmup trimming.
var diffConfigs = []struct {
	name string
	p    Params
	// wantEngages / wantExhaustions assert the config actually exercises
	// the code path it exists for, so the equivalence is not vacuous.
	wantEngages     bool
	wantExhaustions bool
}{
	{
		name: "no-sprint",
		p: Params{
			ArrivalRate: 8, Service: dist.NewExponential(10), ServiceRate: 10,
			Timeout: -1, NumQueries: 600,
		},
	},
	{
		name: "continuous-refill",
		p: Params{
			ArrivalRate: 8, Service: dist.NewExponential(10), ServiceRate: 10,
			SprintRate: 18, Timeout: 0.12, BudgetSeconds: 20, RefillTime: 80,
			NumQueries: 600,
		},
		wantEngages: true,
	},
	{
		name: "paused-refill",
		p: Params{
			ArrivalRate: 8, Service: dist.NewExponential(10), ServiceRate: 10,
			SprintRate: 18, Timeout: 0.12, BudgetSeconds: 15, RefillTime: 60,
			Refill: sprint.RefillPaused, NumQueries: 600,
		},
		wantEngages: true,
	},
	{
		name: "window-refill",
		p: Params{
			ArrivalRate: 8, Service: dist.NewExponential(10), ServiceRate: 10,
			SprintRate: 18, Timeout: 0.1, BudgetSeconds: 6, RefillTime: 10,
			Refill: sprint.RefillWindow, NumQueries: 600,
		},
		wantEngages:     true,
		wantExhaustions: true,
	},
	{
		name: "multi-slot",
		p: Params{
			ArrivalRate: 24, Service: dist.NewExponential(10), ServiceRate: 10,
			SprintRate: 16, Timeout: 0.2, BudgetSeconds: 30, RefillTime: 100,
			Slots: 3, NumQueries: 600,
		},
		wantEngages: true,
	},
	{
		name: "pareto-arrivals-exhaustion",
		p: Params{
			ArrivalRate: 9, ArrivalKind: dist.KindPareto,
			Service: dist.NewExponential(10), ServiceRate: 10,
			SprintRate: 20, Timeout: 0.05, BudgetSeconds: 2, RefillTime: 40,
			NumQueries: 800,
		},
		wantEngages:     true,
		wantExhaustions: true,
	},
	{
		name: "slowdown-sprint",
		p: Params{
			ArrivalRate: 6, Service: dist.NewExponential(10), ServiceRate: 10,
			SprintRate: 7, Timeout: 0.15, BudgetSeconds: 12, RefillTime: 50,
			NumQueries: 500,
		},
		wantEngages: true,
	},
	{
		name: "warmup",
		p: Params{
			ArrivalRate: 8, Service: dist.NewExponential(10), ServiceRate: 10,
			SprintRate: 18, Timeout: 0.12, BudgetSeconds: 20, RefillTime: 80,
			NumQueries: 400, Warmup: 150,
		},
		wantEngages: true,
	},
}

// captureTracer returns a tracer appending every event to the returned
// slice pointer.
func captureTracer() (obs.QueryTracer, *[]obs.QueryEvent) {
	events := &[]obs.QueryEvent{}
	return obs.TracerFunc(func(e obs.QueryEvent) { *events = append(*events, e) }), events
}

// requireFloatsBitIdentical fails unless a and b are element-wise
// bit-identical (distinguishes -0 from 0 and any NaN payloads).
func requireFloatsBitIdentical(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// requireResultsIdentical fails unless got and want match bit-for-bit.
func requireResultsIdentical(t *testing.T, got, want *Result) {
	t.Helper()
	requireFloatsBitIdentical(t, "RTs", got.RTs, want.RTs)
	requireFloatsBitIdentical(t, "QueueingTimes", got.QueueingTimes, want.QueueingTimes)
	if got.SprintedCount != want.SprintedCount {
		t.Fatalf("SprintedCount = %d, want %d", got.SprintedCount, want.SprintedCount)
	}
	if math.Float64bits(got.SprintSeconds) != math.Float64bits(want.SprintSeconds) {
		t.Fatalf("SprintSeconds = %v, want %v", got.SprintSeconds, want.SprintSeconds)
	}
	if math.Float64bits(got.Duration) != math.Float64bits(want.Duration) {
		t.Fatalf("Duration = %v, want %v", got.Duration, want.Duration)
	}
	if got.Engages != want.Engages {
		t.Fatalf("Engages = %d, want %d", got.Engages, want.Engages)
	}
	if got.Exhaustions != want.Exhaustions {
		t.Fatalf("Exhaustions = %d, want %d", got.Exhaustions, want.Exhaustions)
	}
	if got.MaxLive != want.MaxLive {
		t.Fatalf("MaxLive = %d, want %d", got.MaxLive, want.MaxLive)
	}
}

// requireEventsIdentical fails unless the two tracer sequences match
// exactly: same events, same order, bit-identical times and values.
func requireEventsIdentical(t *testing.T, got, want []obs.QueryEvent) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("traced %d events, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Type != w.Type || g.Query != w.Query ||
			math.Float64bits(g.Time) != math.Float64bits(w.Time) ||
			math.Float64bits(g.Value) != math.Float64bits(w.Value) {
			t.Fatalf("event %d = %+v, want %+v", i, g, w)
		}
	}
}

func TestDifferentialSingleClass(t *testing.T) {
	for _, cfg := range diffConfigs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			sawEngage, sawExhaustion := false, false
			for _, seed := range diffSeeds {
				p := cfg.p
				p.Seed = seed

				pr := p
				refTracer, refEvents := captureTracer()
				pr.Tracer = refTracer
				want, err := runReference(pr)
				if err != nil {
					t.Fatalf("seed %d: reference: %v", seed, err)
				}

				pp := p
				gotTracer, gotEvents := captureTracer()
				pp.Tracer = gotTracer
				got, err := Run(pp)
				if err != nil {
					t.Fatalf("seed %d: pooled: %v", seed, err)
				}

				requireResultsIdentical(t, got, want)
				requireEventsIdentical(t, *gotEvents, *refEvents)
				sawEngage = sawEngage || got.Engages > 0
				sawExhaustion = sawExhaustion || got.Exhaustions > 0
			}
			if cfg.wantEngages && !sawEngage {
				t.Fatal("config never engaged a sprint; differential check is vacuous")
			}
			if cfg.wantExhaustions && !sawExhaustion {
				t.Fatal("config never exhausted the budget; differential check is vacuous")
			}
		})
	}
}

// TestDifferentialNoTracer re-runs the configs without a tracer: the
// production hot path branches on tr == nil, so the traced equivalence
// above does not by itself cover the untraced branches.
func TestDifferentialNoTracer(t *testing.T) {
	for _, cfg := range diffConfigs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			for _, seed := range diffSeeds {
				p := cfg.p
				p.Seed = seed
				want, err := runReference(p)
				if err != nil {
					t.Fatalf("seed %d: reference: %v", seed, err)
				}
				got, err := Run(p)
				if err != nil {
					t.Fatalf("seed %d: pooled: %v", seed, err)
				}
				requireResultsIdentical(t, got, want)
			}
		})
	}
}

// TestDifferentialRunReps proves replications on one reused runner are
// bit-identical to independent reference runs with the same derived
// seeds — i.e. no state bleeds across RunInto calls.
func TestDifferentialRunReps(t *testing.T) {
	p := diffConfigs[3].p // window-refill: exercises exhaustion + refill
	p.Seed = 99
	const reps = 5
	results, err := RunReps(p, reps)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != reps {
		t.Fatalf("got %d results, want %d", len(results), reps)
	}
	for i := range results {
		pi := p
		pi.Seed = repSeed(p.Seed, i)
		want, err := runReference(pi)
		if err != nil {
			t.Fatal(err)
		}
		requireResultsIdentical(t, &results[i], want)
	}
}

// TestRunnerReuseAcrossPolicies runs mismatched configs back to back on
// one Runner and checks the third run (same config as the first) is
// unaffected by the second — a reset-completeness probe across refill
// modes, slot counts and arrival families.
func TestRunnerReuseAcrossPolicies(t *testing.T) {
	r := NewRunner()
	a := diffConfigs[5].p // pareto arrivals, tight budget
	a.Seed = 11
	b := diffConfigs[4].p // 3 slots, different arrival family
	b.Seed = 23

	first, err := r.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(b); err != nil {
		t.Fatal(err)
	}
	third, err := r.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	requireResultsIdentical(t, third, first)

	want, err := runReference(a)
	if err != nil {
		t.Fatal(err)
	}
	requireResultsIdentical(t, first, want)
}

// TestPredictWorkerCountInvariant checks the chunked parallel path pools
// the same numbers regardless of worker count (replication seeds depend
// only on the replication index).
func TestPredictWorkerCountInvariant(t *testing.T) {
	p := diffConfigs[1].p
	p.Seed = 5
	p.NumQueries = 300
	serial, err := Predict(p, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 6, 8} {
		par, err := Predict(p, 6, workers)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(par.MeanRT) != math.Float64bits(serial.MeanRT) ||
			math.Float64bits(par.P95RT) != math.Float64bits(serial.P95RT) ||
			math.Float64bits(par.P99RT) != math.Float64bits(serial.P99RT) ||
			par.QueriesSimulated != serial.QueriesSimulated {
			t.Fatalf("workers=%d: %+v differs from serial %+v", workers, par, serial)
		}
	}
}
