package sweep

import (
	"context"
	"errors"
	"strings"
	"testing"

	"mdsprint/internal/dist"
	"mdsprint/internal/obs"
)

// panicService is a service distribution whose Sample panics: a
// simulator task built on it fails inside the worker.
type panicService struct{ dist.Exponential }

func (panicService) Sample(*dist.RNG) float64 { panic("chaos says no") }

// TestPoolSurvivesInjectedPanics is the no-panic-kills-the-pool
// guarantee: tasks whose simulation panics must surface per-task errors,
// leave every other task's result intact, and leave the engine fully
// usable for the next batch.
func TestPoolSurvivesInjectedPanics(t *testing.T) {
	tasks := testGrid()
	isVictim := func(i int) bool { return i == 3 || i == 11 || i == 20 }
	faulty := make([]Task, len(tasks))
	for i, task := range tasks {
		if isVictim(i) {
			task.Params.Service = panicService{dist.NewExponential(task.Params.ServiceRate)}
		}
		faulty[i] = task
	}
	e := New(Options{Workers: 4, CacheSize: -1, Metrics: obs.NewRegistry()})
	preds, err := e.EvaluateAll(context.Background(), faulty)
	if err == nil {
		t.Fatal("expected the batch to report the panicked tasks")
	}
	// Deterministic reporting: the lowest-indexed failure wins.
	if !strings.Contains(err.Error(), "task 3") || !strings.Contains(err.Error(), "recovered panic") {
		t.Fatalf("batch error %q, want the recovered panic of task 3", err)
	}
	want, werr := New(Options{Workers: 1, CacheSize: -1, Metrics: obs.NewRegistry()}).EvaluateAll(context.Background(), tasks)
	if werr != nil {
		t.Fatal(werr)
	}
	for i := range tasks {
		if isVictim(i) {
			continue
		}
		if bitsOf(preds[i]) != bitsOf(want[i]) {
			t.Fatalf("survivor task %d perturbed by its neighbours' panics", i)
		}
	}
	if got := e.Stats().RecoveredPanics; got != 3 {
		t.Fatalf("RecoveredPanics = %d, want 3", got)
	}
	// The pool must still work: same engine, clean batch.
	again, err := e.EvaluateAll(context.Background(), tasks)
	if err != nil {
		t.Fatalf("engine unusable after recovered panics: %v", err)
	}
	for i := range tasks {
		if bitsOf(again[i]) != bitsOf(want[i]) {
			t.Fatalf("post-panic batch diverged at task %d", i)
		}
	}
}

// TestBatchReportsLowestIndexedError: with two invalid tasks in a batch,
// the batch error names the lower index whichever worker fails first.
func TestBatchReportsLowestIndexedError(t *testing.T) {
	tasks := testGrid()
	for _, i := range []int{9, 4} {
		tasks[i].Params.ArrivalRate = -1 // rejected by the simulator's validation
	}
	e := New(Options{Workers: 4, Metrics: obs.NewRegistry()})
	_, err := e.EvaluateAll(context.Background(), tasks)
	if err == nil || !strings.Contains(err.Error(), "task 4") {
		t.Fatalf("batch error %v, want task 4 (the lowest failing index)", err)
	}
}

func TestEvaluateAllCancellation(t *testing.T) {
	tasks := testGrid()
	e := New(Options{Workers: 2, Metrics: obs.NewRegistry()})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before the batch starts: every task is abandoned
	_, err := e.EvaluateAll(ctx, tasks)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "task 0") {
		t.Fatalf("batch error %v, want context.Canceled reported for task 0", err)
	}
	if got := e.Stats().Canceled; got != uint64(len(tasks)) {
		t.Fatalf("Canceled = %d, want %d", got, len(tasks))
	}
	// The engine survives cancellation.
	if _, err := e.EvaluateAll(context.Background(), tasks[:4]); err != nil {
		t.Fatalf("engine unusable after a canceled batch: %v", err)
	}
}

func TestEvaluateAllNilContext(t *testing.T) {
	tasks := testGrid()[:4]
	e := New(Options{Workers: 2, Metrics: obs.NewRegistry()})
	preds, err := e.EvaluateAll(nil, tasks) //nolint:staticcheck // nil ctx tolerance is the contract under test
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != len(tasks) {
		t.Fatalf("got %d predictions, want %d", len(preds), len(tasks))
	}
}
