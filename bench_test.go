package mdsprint

// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation, each regenerating its experiment at test scale, plus the
// ablation benchmarks DESIGN.md calls out. A shared lab caches profiling
// and model training across benchmarks, so the first benchmark touching a
// dataset pays its cost.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// and regenerate the full-scale record with cmd/benchgen -scale full.

import (
	"context"
	"os"
	"sync"
	"testing"

	"mdsprint/internal/calib"
	"mdsprint/internal/dist"
	"mdsprint/internal/experiments"
	"mdsprint/internal/forest"
	"mdsprint/internal/mech"
	"mdsprint/internal/obs"
	"mdsprint/internal/profiler"
	"mdsprint/internal/queuesim"
	"mdsprint/internal/stats"
	"mdsprint/internal/workload"
)

var (
	benchOnce sync.Once
	benchLab  *experiments.Lab
)

func lab() *experiments.Lab {
	benchOnce.Do(func() { benchLab = experiments.NewLab(experiments.Quick()) })
	return benchLab
}

func BenchmarkFig1Timeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1(lab())
		if r.Improvement <= 1 {
			b.Fatal("no timeout sensitivity")
		}
	}
}

func BenchmarkTable1C(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table1C(lab())
		if len(r.Rows) != 7 {
			b.Fatal("incomplete table")
		}
	}
}

func BenchmarkMMKValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.MMKValidation(lab())
		b.ReportMetric(r.MedianError*100, "median-err-%")
	}
}

func BenchmarkFig7ModelComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(lab())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MedianError("Hybrid", "Overall")*100, "hybrid-err-%")
		b.ReportMetric(r.MedianError("No-ML", "Overall")*100, "noml-err-%")
	}
}

func BenchmarkFig8WorkloadCDFs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8A(lab()); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Fig8B(lab()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8CHardware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8C(lab()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9Mixes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(lab()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10Groupings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(lab()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11SimThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig11(lab())
		b.ReportMetric(r.Scaling, "core-scaling-x")
	}
}

func BenchmarkFig12TimeoutStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12A(lab()); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Fig12C(lab()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13Colocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig13(lab())
		combo1 := experiments.Combos()[0].Name
		b.ReportMetric(float64(r.Hosted(combo1, "model-driven sprinting")), "combo1-hosted")
	}
}

func BenchmarkFig14Amortisation(b *testing.B) {
	f13 := experiments.Fig13(lab())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig14(f13)
		b.ReportMetric(r.LifetimeRatio, "lifetime-ratio-x")
	}
}

func BenchmarkTailLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.TailLatency(lab())
		b.ReportMetric(r.RatioP99, "tail-ratio-x")
	}
}

// --- Ablations -----------------------------------------------------------

// benchSimParams is a representative sprinting scenario for simulator
// ablations.
func benchSimParams(n int) queuesim.Params {
	mu := 0.02
	return queuesim.Params{
		ArrivalRate: 0.8 * mu,
		Service:     dist.LogNormalFromMeanCV(1/mu, 0.3),
		ServiceRate: mu,
		SprintRate:  1.6 * mu,
		Timeout:     60, BudgetSeconds: 300, RefillTime: 200,
		NumQueries: n, Warmup: n / 10, Seed: 7,
	}
}

// BenchmarkSimulateOne is the observability overhead baseline: one
// simulator run with tracing disabled. BenchmarkSimulateOneTraced runs the
// identical scenario with a RingTracer attached; the pair enforces the
// <5% disabled-hook budget (compare ns/op) and prices enabled tracing.
func BenchmarkSimulateOne(b *testing.B) {
	p := benchSimParams(2000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		queuesim.MustRun(p)
	}
}

func BenchmarkSimulateOneTraced(b *testing.B) {
	p := benchSimParams(2000)
	p.Tracer = obs.NewRingTracer(1 << 14)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		queuesim.MustRun(p)
	}
}

// BenchmarkSimulateOneSpanTraced adds the span tracer on top of the ring
// tracer: each run is wrapped in a pipeline-style span, the shape
// core.PredictCtx produces when sprintctl runs with -trace. Per-event
// records still go to the ring; the span layer adds one pooled span per
// run, so its marginal cost over BenchmarkSimulateOneTraced must stay
// small (TestObsOverheadBudget enforces <=15%).
func BenchmarkSimulateOneSpanTraced(b *testing.B) {
	p := benchSimParams(2000)
	p.Tracer = obs.NewRingTracer(1 << 14)
	st := obs.NewSpanTracer(obs.SpanOptions{})
	prev := obs.SetActiveSpanTracer(st)
	defer obs.SetActiveSpanTracer(prev)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := st.StartSpan("sim.run")
		queuesim.MustRun(p)
		sp.End()
	}
}

// TestObsOverheadBudget is the bench-obs merge gate in test form: it
// measures the three SimulateOne variants back to back and enforces the
// budgets recorded in BENCH_obs.json — enabled ring tracing at most 2x
// the nil-tracer run, and span tracing at most 15% over the ring-traced
// run. (The nil-tracer disabled-hook budget is covered by the
// alloc-check tests; here the interesting regressions are the enabled
// paths.)
func TestObsOverheadBudget(t *testing.T) {
	if os.Getenv("MDSPRINT_BENCH_OBS") == "" {
		t.Skip("timing gate: wall-clock margins need an otherwise idle machine; run via make bench-obs (MDSPRINT_BENCH_OBS=1)")
	}
	if testing.Short() {
		t.Skip("benchmarks the simulator three ways")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the timing budget")
	}
	// Interleave three rounds of the variants and keep each variant's
	// fastest round: single-shot back-to-back runs on a shared machine
	// drift by >10%, which would swamp the margins under test.
	variants := []func(*testing.B){
		BenchmarkSimulateOne, BenchmarkSimulateOneTraced, BenchmarkSimulateOneSpanTraced,
	}
	best := make([]float64, len(variants))
	for round := 0; round < 3; round++ {
		for i, bench := range variants {
			ns := float64(testing.Benchmark(bench).NsPerOp())
			if round == 0 || ns < best[i] {
				best[i] = ns
			}
		}
	}
	base, ring, span := best[0], best[1], best[2]
	t.Logf("nil=%.0fns ring=%.0fns (%.1f%% over nil) span+ring=%.0fns (%.1f%% over ring)",
		base, ring, (ring-base)/base*100, span, (span-ring)/ring*100)
	if ring > 2.0*base {
		t.Errorf("ring tracing %.0fns/op exceeds 2x the nil-tracer %.0fns/op", ring, base)
	}
	if span > 1.15*ring {
		t.Errorf("span tracing %.0fns/op exceeds 15%% over the ring-traced %.0fns/op", span, ring)
	}
}

// BenchmarkAblationTickVsEvent quantifies the cost of Algorithm 1's
// tick-stepped clock versus this repository's event-driven scheduling at
// identical semantics.
func BenchmarkAblationTickVsEvent(b *testing.B) {
	p := benchSimParams(2000)
	b.Run("event", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			queuesim.MustRun(p)
		}
	})
	b.Run("tick-10ms", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := queuesim.RunTick(p, 0.01); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tick-100ms", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := queuesim.RunTick(p, 0.1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ablationDataset profiles a small Jacobi dataset for the calibration and
// forest ablations.
var (
	ablOnce sync.Once
	ablDS   *profiler.Dataset
)

func ablationDataset() *profiler.Dataset {
	ablOnce.Do(func() {
		p := &profiler.Profiler{
			Mix:           workload.SingleClass(workload.MustByName("Jacobi")),
			Mechanism:     mech.DVFS{},
			QueriesPerRun: 800,
			Replications:  2,
			Seed:          31,
		}
		ablDS = p.Profile(profiler.PaperGrid().Sample(12, 5))
	})
	return ablDS
}

// BenchmarkAblationCalibration compares the bisection search against the
// paper's exhaustive unit-stepping search for effective sprint rates.
func BenchmarkAblationCalibration(b *testing.B) {
	ds := ablationDataset()
	base := calib.Options{NumQueries: 1500, Replications: 2, Tolerance: 0.02, Seed: 11}
	run := func(b *testing.B, o calib.Options) {
		var resid []float64
		for i := 0; i < b.N; i++ {
			resid = resid[:0]
			for _, obs := range ds.Observations {
				rec := calib.EffectiveRate(ds, obs, o)
				resid = append(resid, rec.RelError())
			}
		}
		b.ReportMetric(stats.Median(resid)*100, "median-resid-%")
	}
	b.Run("bisection", func(b *testing.B) { run(b, base) })
	b.Run("stepping-1qph", func(b *testing.B) {
		o := base
		o.Stepping = true
		o.StepQPH = 1
		o.MaxIter = 60
		run(b, o)
	})
	b.Run("stepping-0.25qph", func(b *testing.B) {
		o := base
		o.Stepping = true
		o.StepQPH = 0.25
		o.MaxIter = 120
		run(b, o)
	})
}

// BenchmarkAblationForest varies the forest's structural knobs (the paper
// fixes 10 deep, unpruned trees).
func BenchmarkAblationForest(b *testing.B) {
	ds := ablationDataset()
	recs, err := calib.CalibrateDatasetCtx(context.Background(), ds, ds.Observations,
		calib.Options{NumQueries: 1500, Replications: 2, Tolerance: 0.02, Seed: 13})
	if err != nil {
		b.Fatal(err)
	}
	var samples []forest.Sample
	for i, rec := range recs {
		obs := ds.Observations[i]
		samples = append(samples, forest.Sample{
			Features: []float64{obs.ArrivalRate, obs.Cond.Timeout, obs.Cond.RefillTime, obs.Cond.BudgetPct},
			X:        rec.MarginalRate,
			Y:        rec.EffectiveRate,
		})
	}
	names := []string{"lambda", "timeout", "refill", "budget"}
	for _, cfg := range []struct {
		name string
		c    forest.Config
	}{
		{"paper-10-deep", forest.Config{Trees: 10, Seed: 3}},
		{"trees-50", forest.Config{Trees: 50, Seed: 3}},
		{"depth-2", forest.Config{Trees: 10, MaxDepth: 2, Seed: 3}},
		{"single-tree", forest.Config{Trees: 1, FeatureFrac: 1, Seed: 3}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := forest.Train(samples, names, cfg.c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPredictionThroughput measures raw predictions per second on
// one goroutine and with one prediction per GOMAXPROCS worker (the
// Section 3.6 scaling claim in microbenchmark form).
func BenchmarkPredictionThroughput(b *testing.B) {
	p := benchSimParams(10000)
	b.Run("1-worker", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := queuesim.Predict(p, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("all-workers", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := queuesim.Predict(p, 2); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
