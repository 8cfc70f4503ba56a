package explore

import (
	"context"
	"math"
	"runtime"
	"testing"
)

// batchOf adapts a scalar objective for MinimizeBatchCtx tests.
func batchOf(f func([]float64) float64) BatchObjective {
	return func(pts [][]float64) ([]float64, error) {
		out := make([]float64, len(pts))
		for i, p := range pts {
			out[i] = f(p)
		}
		return out, nil
	}
}

func sameTrace(a, b []Step) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].RT) != math.Float64bits(b[i].RT) {
			return false
		}
		for d := range a[i].Point {
			if math.Float64bits(a[i].Point[d]) != math.Float64bits(b[i].Point[d]) {
				return false
			}
		}
	}
	return true
}

// TestMinimizeBatchCohortInvariance is the batched annealer's contract:
// the accepted trajectory, best point, and consumed evaluation count are
// bit-identical for every cohort size; only speculative waste varies.
func TestMinimizeBatchCohortInvariance(t *testing.T) {
	quad := batchOf(func(p []float64) float64 {
		return (p[0]-3)*(p[0]-3) + (p[1]+1)*(p[1]+1)
	})
	space := Space{
		Lo:            []float64{-10, -10},
		Hi:            []float64{10, 10},
		NeighborRange: []float64{2, 2},
	}
	base, err := MinimizeBatchCtx(context.Background(), quad, space, BatchOptions{Cohort: 1, Options: Options{MaxIter: 400, Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if base.Speculative != 0 {
		t.Fatalf("cohort 1 cannot speculate, got %d", base.Speculative)
	}
	if math.Abs(base.Point[0]-3) > 0.5 || math.Abs(base.Point[1]+1) > 0.5 {
		t.Fatalf("batched search missed the quadratic minimum: %v", base.Point)
	}
	for _, cohort := range []int{4, 16} {
		got, err := MinimizeBatchCtx(context.Background(), quad, space, BatchOptions{Cohort: cohort, Options: Options{MaxIter: 400, Seed: 9}})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.RT) != math.Float64bits(base.RT) {
			t.Fatalf("cohort %d best RT %v != cohort 1 %v", cohort, got.RT, base.RT)
		}
		for d := range got.Point {
			if math.Float64bits(got.Point[d]) != math.Float64bits(base.Point[d]) {
				t.Fatalf("cohort %d best point %v != cohort 1 %v", cohort, got.Point, base.Point)
			}
		}
		if !sameTrace(got.Trace, base.Trace) {
			t.Fatalf("cohort %d accepted trajectory diverged", cohort)
		}
		if consumed, want := got.Evaluations-got.Speculative, base.Evaluations; consumed != want {
			t.Fatalf("cohort %d consumed %d evaluations, cohort 1 consumed %d", cohort, consumed, want)
		}
		if cohort > 1 && got.Speculative == 0 {
			t.Fatalf("cohort %d reported no speculative work on a 400-step anneal", cohort)
		}
	}
}

// TestMinimizeBatchObjectiveErrors: objective failures surface, as do
// shape mismatches.
func TestMinimizeBatchObjectiveErrors(t *testing.T) {
	space := Space{Lo: []float64{0}, Hi: []float64{1}, NeighborRange: []float64{1}}
	_, err := MinimizeBatchCtx(context.Background(), func([][]float64) ([]float64, error) {
		return nil, errSentinel
	}, space, BatchOptions{Options: Options{MaxIter: 10, Seed: 1}})
	if err == nil {
		t.Fatal("objective error must fail the search")
	}
	_, err = MinimizeBatchCtx(context.Background(), func(pts [][]float64) ([]float64, error) {
		return make([]float64, len(pts)+1), nil
	}, space, BatchOptions{Options: Options{MaxIter: 10, Seed: 1}})
	if err == nil {
		t.Fatal("shape mismatch must fail the search")
	}
}

type sentinelError struct{}

func (sentinelError) Error() string { return "objective failed" }

var errSentinel = sentinelError{}

// TestMinimizeTimeoutBatchWrapper: the 1-D wrapper finds the knee of a
// convex timeout curve.
func TestMinimizeTimeoutBatchWrapper(t *testing.T) {
	res, err := MinimizeTimeoutBatchCtx(context.Background(), func(ts []float64) ([]float64, error) {
		out := make([]float64, len(ts))
		for i, to := range ts {
			out[i] = (to - 70) * (to - 70)
		}
		return out, nil
	}, 0, 300, BatchOptions{Cohort: 8, Options: Options{MaxIter: 200, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Point[0]-70) > 5 {
		t.Fatalf("timeout anneal landed at %v, want ~70", res.Point[0])
	}
}

// TestMinimizeBoundaryClampRejected is the regression test for the
// clamp-and-reject rule: when the incumbent sits on a bound, proposals
// that clamp back onto it must be discarded without an evaluation or an
// acceptance draw, not re-accepted via Equation 5's zero-delta
// probability of one.
func TestMinimizeBoundaryClampRejected(t *testing.T) {
	// Objective strictly decreasing in x: the optimum is the upper
	// bound, so the search pins there and every further upward proposal
	// clamps onto the incumbent.
	evals := 0
	obj := func(p []float64) float64 {
		evals++
		return -p[0]
	}
	space := Space{Lo: []float64{0}, Hi: []float64{50}, NeighborRange: []float64{100}}
	res, err := Minimize(obj, space, Options{MaxIter: 500, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Point[0] != 50 {
		t.Fatalf("monotone objective must pin the upper bound, got %v", res.Point[0])
	}
	if res.Evaluations != evals {
		t.Fatalf("Evaluations=%d but objective ran %d times", res.Evaluations, evals)
	}
	// With a +-100 window on a 50-wide space, roughly half the
	// proposals from the bound clamp back onto it. Before the fix every
	// one of them was evaluated and re-accepted; after it they are
	// skipped, so evaluations must come in well under MaxIter+1.
	if res.Evaluations >= 400 {
		t.Fatalf("clamped-onto-incumbent proposals were evaluated: %d evaluations for 500 iterations", res.Evaluations)
	}
	// And none of them may appear in the trace as phantom re-accepts. A
	// zero-delta re-accept shows up as two consecutive identical trace
	// steps (the incumbent "accepted" onto itself); annealing may
	// legitimately leave the bound and return, but never step in place.
	assertNoPhantomSteps(t, res.Trace)
	// The batched annealer applies the same rule.
	bres, err := MinimizeBatchCtx(context.Background(), batchOf(func(p []float64) float64 { return -p[0] }), space,
		BatchOptions{Cohort: 8, Options: Options{MaxIter: 500, Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if bres.Point[0] != 50 {
		t.Fatalf("batched search must pin the upper bound, got %v", bres.Point[0])
	}
	assertNoPhantomSteps(t, bres.Trace)
}

// assertNoPhantomSteps fails if any accepted step repeats its
// predecessor bit-for-bit — the signature of a clamped-onto-incumbent
// proposal slipping through Equation 5 with probability one.
func assertNoPhantomSteps(t *testing.T, trace []Step) {
	t.Helper()
	for i := 1; i < len(trace); i++ {
		same := true
		for d := range trace[i].Point {
			if math.Float64bits(trace[i].Point[d]) != math.Float64bits(trace[i-1].Point[d]) {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("trace step %d re-accepts its predecessor %v", i, trace[i].Point)
		}
	}
}

// TestBatchDefaultCohortMatchesWorkers: an unset cohort proposes one
// candidate per CPU the objective's sweep can use at once.
func TestBatchDefaultCohortMatchesWorkers(t *testing.T) {
	if got, want := (BatchOptions{}).withDefaults().Cohort, runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("default cohort %d, want GOMAXPROCS %d", got, want)
	}
	if got := (BatchOptions{Cohort: 3}).withDefaults().Cohort; got != 3 {
		t.Fatalf("explicit cohort 3 became %d", got)
	}
}
