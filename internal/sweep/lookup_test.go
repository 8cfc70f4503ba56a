package sweep

import (
	"errors"
	"testing"

	"mdsprint/internal/dist"
	"mdsprint/internal/obs"
	"mdsprint/internal/queuesim"
)

// TestLookupSemantics pins the silent-peek contract the tier estimator
// builds on: a Lookup never evaluates, never blocks on an in-flight
// owner, never moves the hit/miss counters, and a hit is bit-identical
// to what Evaluate returned for the same task.
func TestLookupSemantics(t *testing.T) {
	e := New(Options{Workers: 2, Metrics: obs.NewRegistry()})
	task := Task{Params: queuesim.Params{
		ArrivalRate: 0.6,
		Service:     dist.NewExponential(1),
		ServiceRate: 1,
		Timeout:     -1,
		NumQueries:  400,
		Seed:        7,
	}, Reps: 2}

	// Cold: a miss, and no counter movement.
	if _, ok := e.Lookup(task); ok {
		t.Fatal("Lookup hit on a cold cache")
	}
	if s := e.Stats(); s.Tasks != 0 || s.Hits != 0 || s.Misses != 0 || s.Evals != 0 {
		t.Fatalf("cold Lookup moved counters: %+v", s)
	}

	want, err := e.Evaluate(task)
	if err != nil {
		t.Fatal(err)
	}
	after := e.Stats()

	got, ok := e.Lookup(task)
	if !ok {
		t.Fatal("Lookup missed a memoized task")
	}
	if bitsOf(got) != bitsOf(want) {
		t.Fatalf("Lookup %+v != Evaluate %+v", got, want)
	}
	// Equivalent spellings canonicalize to the same key.
	alias := task
	alias.Params.Slots = 1
	alias.Params.ArrivalKind = dist.KindExponential
	if _, ok := e.Lookup(alias); !ok {
		t.Fatal("Lookup missed a canonically-equal spelling")
	}
	if s := e.Stats(); s != after {
		t.Fatalf("Lookup moved counters: %+v -> %+v", after, s)
	}

	// Different reps is a different key.
	other := task
	other.Reps = 3
	if _, ok := e.Lookup(other); ok {
		t.Fatal("Lookup hit across differing reps")
	}

	// Tracer-carrying tasks never consult the cache.
	traced := task
	traced.Params.Tracer = obs.NewRingTracer(16)
	if _, ok := e.Lookup(traced); ok {
		t.Fatal("Lookup hit for a traced task")
	}

	// Cache disabled: always a miss.
	if _, ok := New(Options{CacheSize: -1, Metrics: obs.NewRegistry()}).Lookup(task); ok {
		t.Fatal("Lookup hit with memoization disabled")
	}
}

// TestLookupSkipsInFlightAndFailed pins the two subtle misses: an entry
// still being computed by another goroutine (peeking must not block the
// caller behind someone else's simulation), and a memoized failure
// (the tier must re-route errors through Evaluate, which owns error
// reporting).
func TestLookupSkipsInFlightAndFailed(t *testing.T) {
	e := New(Options{Workers: 1, Metrics: obs.NewRegistry()})
	task := Task{Params: queuesim.Params{
		ArrivalRate: 0.5,
		Service:     dist.NewExponential(1),
		ServiceRate: 1,
		Timeout:     -1,
		NumQueries:  200,
		Seed:        3,
	}}
	key, err := Fingerprint(task.Params, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate an in-flight owner by starting the entry without
	// finishing it.
	en, owner, _ := e.cache.getOrStart(key)
	if !owner {
		t.Fatal("expected to own the fresh entry")
	}
	if _, ok := e.Lookup(task); ok {
		t.Fatal("Lookup hit an in-flight entry")
	}
	e.cache.finish(en, queuesim.Prediction{}, errors.New("boom"))
	if _, ok := e.Lookup(task); ok {
		t.Fatal("Lookup hit a memoized failure")
	}
}
