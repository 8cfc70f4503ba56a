package queuesim

import (
	"math"
	"testing"

	"mdsprint/internal/dist"
	"mdsprint/internal/obs"
)

// tracerParams is a fully deterministic single-slot scenario: queries
// arrive every 100 s (far apart, so they never queue), each needs 10 s of
// service at mu = 0.1, the sprint doubles the rate (mu_e = 0.2), and the
// 2 s timeout fires mid-service. With the default budget of 100 s every
// query sprints to completion; shrinking the budget exercises exhaustion
// and refill.
func tracerParams(budget, refill float64) Params {
	return Params{
		ArrivalRate:   0.01,
		ArrivalKind:   dist.KindDeterministic,
		Service:       dist.Deterministic{Value: 10},
		ServiceRate:   0.1,
		SprintRate:    0.2,
		Timeout:       2,
		BudgetSeconds: budget,
		RefillTime:    refill,
		NumQueries:    2,
		Seed:          1,
	}
}

// wantEvent is one expected lifecycle event; Time and Value are compared
// with a small tolerance.
type wantEvent struct {
	typ   obs.EventType
	t     float64
	query int
	value float64
}

func checkEvents(t *testing.T, got []obs.QueryEvent, want []wantEvent) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("traced %d events, want %d:\n%+v", len(got), len(want), got)
	}
	const tol = 1e-9
	for i, w := range want {
		g := got[i]
		if g.Type != w.typ || g.Query != w.query ||
			math.Abs(g.Time-w.t) > tol || math.Abs(g.Value-w.value) > tol {
			t.Errorf("event %d = %+v, want {%s t=%v query=%d value=%v}",
				i, g, w.typ, w.t, w.query, w.value)
		}
	}
}

func TestTracerEventSequence(t *testing.T) {
	// Walk the full lifecycle analytically. Query 0 arrives at t=100
	// (service 10 s), starts immediately (queueing delay 0), its 2 s
	// timeout fires at 102 with 20% of the work done, the sprint halves
	// the remaining 8 s, so it departs at 106 with response time 6.
	// Query 1 repeats the pattern at t=200 with the budget down by the
	// 4 sprint-seconds query 0 consumed.
	tr := obs.NewRingTracer(64)
	p := tracerParams(100, 0)
	p.Tracer = tr
	res := MustRun(p)
	if len(res.RTs) != 2 {
		t.Fatalf("simulated %d queries", len(res.RTs))
	}
	checkEvents(t, tr.Events(), []wantEvent{
		{obs.EvArrival, 100, 0, 10},
		{obs.EvServiceStart, 100, 0, 0},
		{obs.EvTimeout, 102, 0, 2},
		{obs.EvSprintStart, 102, 0, 100}, // budget level at engagement
		{obs.EvSprintStop, 106, 0, 4},    // sprint lasted 4 s
		{obs.EvDeparture, 106, 0, 6},     // response time 6 s
		{obs.EvArrival, 200, 1, 10},
		{obs.EvServiceStart, 200, 1, 0},
		{obs.EvTimeout, 202, 1, 2},
		{obs.EvSprintStart, 202, 1, 96}, // 100 minus query 0's 4 s
		{obs.EvSprintStop, 206, 1, 4},
		{obs.EvDeparture, 206, 1, 6},
	})
}

func TestTracerBudgetExhaustion(t *testing.T) {
	// A 2 s budget (no refill) drains mid-sprint: query 0 engages at 102,
	// the budget empties at 104 (system-wide event first, then the forced
	// per-query stop), and the remaining 40% of the work finishes at the
	// sustained rate by 108. Query 1 times out but can never engage.
	tr := obs.NewRingTracer(64)
	p := tracerParams(2, 0)
	p.Tracer = tr
	MustRun(p)
	checkEvents(t, tr.Events(), []wantEvent{
		{obs.EvArrival, 100, 0, 10},
		{obs.EvServiceStart, 100, 0, 0},
		{obs.EvTimeout, 102, 0, 2},
		{obs.EvSprintStart, 102, 0, 2},
		{obs.EvBudgetExhausted, 104, -1, 1}, // one active sprint stopped
		{obs.EvSprintStop, 104, 0, 2},
		{obs.EvDeparture, 108, 0, 8},
		{obs.EvArrival, 200, 1, 10},
		{obs.EvServiceStart, 200, 1, 0},
		{obs.EvTimeout, 202, 1, 2}, // fires, but the budget is gone
		{obs.EvDeparture, 210, 1, 10},
	})
}

func TestTracerRefillAfterExhaustion(t *testing.T) {
	// With a refill window the budget becomes usable again between
	// queries: the refill event must appear exactly once, tagged to the
	// query whose engagement observed the replenished budget.
	tr := obs.NewRingTracer(64)
	p := tracerParams(2, 100)
	p.Tracer = tr
	MustRun(p)
	events := tr.Events()
	if got := tr.Count(obs.EvRefill); got != 1 {
		t.Fatalf("%d refill events, want 1:\n%+v", got, events)
	}
	if got := tr.Count(obs.EvSprintStart); got != 2 {
		t.Fatalf("%d sprint starts, want 2", got)
	}
	if tr.Count(obs.EvBudgetExhausted) == 0 {
		t.Fatal("no budget exhaustion despite a 2 s budget")
	}
	for i, e := range events {
		if e.Type != obs.EvRefill {
			continue
		}
		if e.Query != 1 {
			t.Fatalf("refill tagged to query %d, want 1", e.Query)
		}
		if i+1 >= len(events) || events[i+1].Type != obs.EvSprintStart {
			t.Fatalf("refill not immediately followed by sprint_start:\n%+v", events)
		}
		if e.Value <= 0 {
			t.Fatalf("refill budget level %v, want > 0", e.Value)
		}
	}
}

func TestTracerDoesNotPerturbSimulation(t *testing.T) {
	// Attaching a tracer must not change a single response time: the
	// hooks only read simulator state.
	p := Params{
		ArrivalRate: 0.8 * 0.02,
		Service:     dist.LogNormalFromMeanCV(50, 0.3),
		ServiceRate: 0.02,
		SprintRate:  1.6 * 0.02,
		Timeout:     60, BudgetSeconds: 300, RefillTime: 200,
		NumQueries: 500, Warmup: 50, Seed: 7,
	}
	plain := MustRun(p)
	p.Tracer = obs.NewRingTracer(1 << 14)
	traced := MustRun(p)
	if len(plain.RTs) != len(traced.RTs) {
		t.Fatalf("traced run measured %d queries, plain %d", len(traced.RTs), len(plain.RTs))
	}
	for i := range plain.RTs {
		if plain.RTs[i] != traced.RTs[i] {
			t.Fatalf("RT %d diverged: %v vs %v", i, plain.RTs[i], traced.RTs[i])
		}
	}
	if plain.SprintSeconds != traced.SprintSeconds {
		t.Fatalf("sprint seconds diverged: %v vs %v", plain.SprintSeconds, traced.SprintSeconds)
	}
}

func TestTracerDepartureAccounting(t *testing.T) {
	// Every simulated query (warmup included) must produce exactly one
	// arrival and one departure, and response times in the events must
	// match the result.
	tr := obs.NewRingTracer(1 << 14)
	p := Params{
		ArrivalRate: 0.8 * 0.02,
		Service:     dist.LogNormalFromMeanCV(50, 0.3),
		ServiceRate: 0.02,
		SprintRate:  1.6 * 0.02,
		Timeout:     60, BudgetSeconds: 300, RefillTime: 200,
		NumQueries: 400, Warmup: 40, Seed: 21,
		Tracer: tr,
	}
	res := MustRun(p)
	total := p.NumQueries + p.Warmup
	if got := tr.Count(obs.EvArrival); got != total {
		t.Fatalf("%d arrivals traced, want %d", got, total)
	}
	if got := tr.Count(obs.EvDeparture); got != total {
		t.Fatalf("%d departures traced, want %d", got, total)
	}
	// Departure events for measured queries carry the response times.
	rts := map[int]float64{}
	for _, e := range tr.Events() {
		if e.Type == obs.EvDeparture && e.Query >= p.Warmup {
			rts[e.Query] = e.Value
		}
	}
	if len(rts) != p.NumQueries {
		t.Fatalf("%d measured departures, want %d", len(rts), p.NumQueries)
	}
	for i, rt := range res.RTs {
		if got := rts[p.Warmup+i]; got != rt {
			t.Fatalf("departure RT for query %d = %v, result says %v", p.Warmup+i, got, rt)
		}
	}
}

func TestRunFlushesSimMetrics(t *testing.T) {
	// Each run flushes its totals into the default registry once.
	runs := obs.Default().Counter("mdsprint_sim_runs_total", "")
	queries := obs.Default().Counter("mdsprint_sim_queries_total", "")
	beforeRuns, beforeQueries := runs.Value(), queries.Value()
	MustRun(tracerParams(100, 0))
	if got := runs.Value() - beforeRuns; got != 1 {
		t.Fatalf("runs counter moved by %v, want 1", got)
	}
	if got := queries.Value() - beforeQueries; got != 2 {
		t.Fatalf("queries counter moved by %v, want 2", got)
	}
}
