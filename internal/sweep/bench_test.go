package sweep

import (
	"context"
	"testing"

	"mdsprint/internal/dist"
	"mdsprint/internal/obs"
)

// benchGrid is the fig10 grid at its default (quick) scale: 36 policy
// points, 2 replications each. BENCH_sweep.json records these numbers;
// regenerate with `make bench-sweep`.
func benchGrid() []Task { return DefaultGrid().Tasks() }

// BenchmarkSweepSerial evaluates the grid on one worker with memoization
// off — the pre-engine baseline every consumer used to pay per sweep.
func BenchmarkSweepSerial(b *testing.B) {
	tasks := benchGrid()
	for i := 0; i < b.N; i++ {
		e := New(Options{Workers: 1, CacheSize: -1, Metrics: obs.NewRegistry()})
		if _, err := e.EvaluateAll(context.Background(), tasks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepSharded evaluates the grid on 4 workers, memoization off,
// isolating the worker-pool speedup (≈linear in physical cores; on a
// single-CPU host it measures pure sharding overhead instead).
func BenchmarkSweepSharded(b *testing.B) {
	tasks := benchGrid()
	for i := 0; i < b.N; i++ {
		e := New(Options{Workers: 4, CacheSize: -1, Metrics: obs.NewRegistry()})
		if _, err := e.EvaluateAll(context.Background(), tasks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepCached re-sweeps the grid against a warm cache — the
// annealing/packing steady state, where nearly every proposal has been
// scored before. Reports the measured hit rate.
func BenchmarkSweepCached(b *testing.B) {
	tasks := benchGrid()
	e := New(Options{Workers: 4, Metrics: obs.NewRegistry()})
	if _, err := e.EvaluateAll(context.Background(), tasks); err != nil {
		b.Fatal(err) // warm the cache outside the timed region
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.EvaluateAll(context.Background(), tasks); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(e.Stats().HitRate(), "hit-rate")
}

// BenchmarkFingerprint keys one evaluation point whose service is an
// Empirical over 1,500 samples, the size of a profiled dataset's service
// vector — the memo-key cost every calibration, sweep and prediction pays
// before the cache can answer.
func BenchmarkFingerprint(b *testing.B) {
	r := dist.NewRNG(9)
	samples := make([]float64, 1500)
	for i := range samples {
		samples[i] = 50 + 100*r.Float64()
	}
	p := baseParams()
	p.Service = dist.NewEmpirical(samples)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Fingerprint(p, 2); err != nil {
			b.Fatal(err)
		}
	}
}
