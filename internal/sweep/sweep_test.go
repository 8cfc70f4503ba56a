package sweep

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"

	"mdsprint/internal/dist"
	"mdsprint/internal/obs"
	"mdsprint/internal/queuesim"
)

// testGrid is a small but non-trivial fig10-style grid (36 points).
func testGrid() []Task {
	g := DefaultGrid()
	g.NumQueries = 200
	return g.Tasks()
}

// bitsOf projects a prediction onto its exact float64 bit patterns so
// differential tests compare bit-for-bit, not approximately.
func bitsOf(p queuesim.Prediction) [3]uint64 {
	return [3]uint64{
		math.Float64bits(p.MeanRT),
		math.Float64bits(p.P95RT),
		math.Float64bits(p.P99RT),
	}
}

// TestShardingDeterminism is the differential test the engine's contract
// rests on: the same batch evaluated serially, on 4 workers, and on
// NumCPU workers must produce bit-identical predictions in identical
// order, and a cached re-run must reproduce the uncached run exactly.
func TestShardingDeterminism(t *testing.T) {
	tasks := testGrid()
	baseline, err := New(Options{Workers: 1, CacheSize: -1, Metrics: obs.NewRegistry()}).EvaluateAll(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, runtime.NumCPU()} {
		e := New(Options{Workers: workers, CacheSize: -1, Metrics: obs.NewRegistry()})
		got, err := e.EvaluateAll(context.Background(), tasks)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tasks {
			if bitsOf(got[i]) != bitsOf(baseline[i]) {
				t.Fatalf("workers=%d task %d: %+v != serial %+v", workers, i, got[i], baseline[i])
			}
		}
	}

	// Cached engine: first pass misses everything, second pass must be
	// served ~entirely from memoization and still be bit-identical.
	e := New(Options{Workers: 4, Metrics: obs.NewRegistry()})
	first, err := e.EvaluateAll(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.EvaluateAll(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tasks {
		if bitsOf(first[i]) != bitsOf(baseline[i]) {
			t.Fatalf("cached engine task %d diverged from serial baseline", i)
		}
		if bitsOf(second[i]) != bitsOf(first[i]) {
			t.Fatalf("cache replay task %d diverged from its own first run", i)
		}
	}
	s := e.Stats()
	if s.Misses != uint64(len(tasks)) {
		t.Fatalf("first pass should miss every task: %+v", s)
	}
	if s.Hits < uint64(len(tasks)) {
		t.Fatalf("second pass should hit every task: %+v", s)
	}
	if rate := s.HitRate(); rate < 0.5 {
		t.Fatalf("hit rate %v after replaying the grid once", rate)
	}
}

// TestEvaluateMatchesPredict pins the engine to the simulator it wraps.
func TestEvaluateMatchesPredict(t *testing.T) {
	task := testGrid()[7]
	want, err := queuesim.Predict(task.Params, task.Reps)
	if err != nil {
		t.Fatal(err)
	}
	got, err := New(Options{Metrics: obs.NewRegistry()}).Evaluate(task)
	if err != nil {
		t.Fatal(err)
	}
	if bitsOf(got) != bitsOf(want) {
		t.Fatalf("Evaluate %+v != Predict %+v", got, want)
	}
}

// TestSingleFlight hammers one key from many goroutines: exactly one
// simulator evaluation may run, everyone gets the identical result.
func TestSingleFlight(t *testing.T) {
	e := New(Options{Workers: 8, Metrics: obs.NewRegistry()})
	task := testGrid()[0]
	const callers = 32
	preds := make([]queuesim.Prediction, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := e.Evaluate(task)
			if err != nil {
				t.Error(err)
				return
			}
			preds[i] = p
		}(i)
	}
	wg.Wait()
	s := e.Stats()
	if s.Evals != 1 {
		t.Fatalf("single-flight ran the simulator %d times for one key", s.Evals)
	}
	for i := 1; i < callers; i++ {
		if bitsOf(preds[i]) != bitsOf(preds[0]) {
			t.Fatalf("caller %d saw a different prediction", i)
		}
	}
}

// TestLRUEviction bounds the cache and checks that displaced keys
// re-evaluate while retained ones hit.
func TestLRUEviction(t *testing.T) {
	tasks := testGrid()
	e := New(Options{Workers: 1, CacheSize: 4, Metrics: obs.NewRegistry()})
	if _, err := e.EvaluateAll(context.Background(), tasks[:8]); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Evictions != 4 {
		t.Fatalf("8 inserts into a 4-entry cache should evict 4, got %+v", s)
	}
	if s.Entries != 4 {
		t.Fatalf("cache should be at its bound, got %d entries", s.Entries)
	}
	// tasks[4:8] are the retained MRU half; tasks[0] was evicted.
	if _, err := e.Evaluate(tasks[7]); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Hits; got != 1 {
		t.Fatalf("retained key should hit, hits=%d", got)
	}
	if _, err := e.Evaluate(tasks[0]); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Evals; got != 9 {
		t.Fatalf("evicted key should re-evaluate, evals=%d", got)
	}
}

// TestTracerBypassesCache: observed runs must execute every time so their
// side effects (trace events) fire, and must never poison the cache.
func TestTracerBypassesCache(t *testing.T) {
	e := New(Options{Workers: 1, Metrics: obs.NewRegistry()})
	task := testGrid()[0]
	tr := obs.NewRingTracer(16)
	task.Params.Tracer = tr
	for i := 0; i < 2; i++ {
		if _, err := e.Evaluate(task); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.Bypasses != 2 || s.Evals != 2 || s.Hits != 0 {
		t.Fatalf("traced tasks must bypass the cache: %+v", s)
	}
	if len(tr.Events()) == 0 {
		t.Fatal("traced evaluation emitted no events")
	}
}

// TestBatchErrorIsLowestIndex: a failing batch must report the same error
// no matter how the pool schedules it.
func TestBatchErrorIsLowestIndex(t *testing.T) {
	tasks := testGrid()[:6]
	bad := queuesim.Params{ArrivalRate: -1, Service: dist.NewExponential(1), ServiceRate: 1}
	tasks[1].Params = bad
	tasks[4].Params = queuesim.Params{ArrivalRate: 1, ServiceRate: -2, Service: dist.NewExponential(1)}
	e := New(Options{Workers: 4, Metrics: obs.NewRegistry()})
	var firstMsg string
	for trial := 0; trial < 3; trial++ {
		preds, err := e.EvaluateAll(context.Background(), tasks)
		if err == nil {
			t.Fatal("invalid task must fail the batch")
		}
		if trial == 0 {
			firstMsg = err.Error()
		} else if err.Error() != firstMsg {
			t.Fatalf("batch error not deterministic: %q vs %q", err.Error(), firstMsg)
		}
		// Healthy tasks still produced results.
		if preds[0].QueriesSimulated == 0 {
			t.Fatal("successful task's result missing from failed batch")
		}
	}
	if got := e.Stats().Hits; got == 0 {
		t.Fatal("healthy tasks in a failing batch should still memoize across trials")
	}
}

// TestSharedEngine: the process-wide engine exists and resolves through
// Or.
func TestSharedEngine(t *testing.T) {
	if Shared() != Shared() {
		t.Fatal("Shared must return one engine")
	}
	if Or(nil) != Shared() {
		t.Fatal("Or(nil) must resolve to the shared engine")
	}
	e := New(Options{Metrics: obs.NewRegistry()})
	if Or(e) != e {
		t.Fatal("Or must pass an explicit engine through")
	}
}

// TestMeanRTs reduces a batch to mean response times in task order.
func TestMeanRTs(t *testing.T) {
	tasks := testGrid()[:4]
	e := New(Options{Metrics: obs.NewRegistry()})
	preds, err := e.EvaluateAll(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	rts, err := e.MeanRTs(tasks)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tasks {
		if math.Float64bits(rts[i]) != math.Float64bits(preds[i].MeanRT) {
			t.Fatalf("MeanRTs[%d] != EvaluateAll mean", i)
		}
	}
}
