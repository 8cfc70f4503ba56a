package main

import (
	"context"
	"flag"
	"fmt"

	"mdsprint"
	"mdsprint/internal/calib"
	"mdsprint/internal/core"
	"mdsprint/internal/dist"
	"mdsprint/internal/explore"
	"mdsprint/internal/forest"
	"mdsprint/internal/obs"
	"mdsprint/internal/online"
	"mdsprint/internal/profiler"
	"mdsprint/internal/trace"
)

// cmdPipeline runs the paper's whole control loop end to end on a small
// scale — profile → calibrate/train → sweep → explore → online
// re-selection — so one invocation exercises every instrumented stage.
// With the global -trace flag the run emits a Chrome trace whose span
// tree covers the full pipeline; -decisions-out captures the online
// stage's provenance ledger.
func cmdPipeline(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("pipeline", flag.ExitOnError)
	workloadName := fs.String("workload", "Jacobi", "workload class or MixI/MixII")
	mechName := fs.String("mech", "DVFS", "sprinting mechanism")
	samples := fs.Int("samples", 10, "profiling conditions")
	queries := fs.Int("queries", 200, "queries per profiling run")
	simQueries := fs.Int("sim-queries", 400, "queries per prediction simulation")
	iters := fs.Int("iters", 25, "annealing iterations in the explore stage")
	steps := fs.Int("steps", 8, "online control steps")
	seed := fs.Uint64("seed", 1, "random seed")
	decisionsOut := fs.String("decisions-out", "", "write the online stage's decision ledger as JSONL to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}

	sp := obs.StartSpanCtx(ctx, "sprintctl.pipeline")
	ctx = obs.ContextWithSpan(ctx, sp)
	err := runPipeline(ctx, sp, pipelineParams{
		workload: *workloadName, mech: *mechName,
		samples: *samples, queries: *queries, simQueries: *simQueries,
		iters: *iters, steps: *steps, seed: *seed,
		decisionsOut: *decisionsOut,
	})
	sp.SetError(err)
	sp.End()
	return err
}

// pipelineParams are cmdPipeline's parsed knobs.
type pipelineParams struct {
	workload, mech               string
	samples, queries, simQueries int
	iters, steps                 int
	seed                         uint64
	decisionsOut                 string
}

// runPipeline executes the stages under the given root span.
func runPipeline(ctx context.Context, root *obs.Span, p pipelineParams) error {
	mix, err := mdsprint.WorkloadMix(p.workload)
	if err != nil {
		return err
	}
	m, err := resolveMechanism(p.mech)
	if err != nil {
		return err
	}

	// Stage 1: profile the workload over a sampled condition grid.
	psp := root.StartChild("pipeline.profile")
	psp.SetInt("conditions", int64(p.samples))
	prof := &profiler.Profiler{
		Mix: mix, Mechanism: m,
		QueriesPerRun: p.queries, Replications: 1, Seed: p.seed,
	}
	conds := profiler.PaperGrid().Sample(p.samples, p.seed+3)
	ds := prof.Profile(conds)
	psp.End()
	logg.Infof("pipeline: profiled %d conditions (service rate %.3f q/s)", len(conds), ds.ServiceRate)

	// Stage 2: calibrate effective sprint rates and train the hybrid
	// model (spans: core.train_hybrid → calib.dataset → calib.record →
	// sweep.*, forest.train).
	h, err := core.TrainHybridCtx(ctx,
		[]core.TrainingSet{{Dataset: ds, Observations: ds.Observations}},
		core.HybridOptions{
			Forest:     forest.Config{Trees: 5, FeatureFrac: 0.9, Seed: p.seed + 7},
			Calib:      calib.Options{NumQueries: 250, Replications: 1, Tolerance: 0.05, Seed: p.seed + 101},
			SimQueries: p.simQueries, SimReps: 1, Seed: p.seed + 13,
		})
	if err != nil {
		return fmt.Errorf("pipeline: training: %w", err)
	}
	logg.Infof("pipeline: hybrid model trained on %d observations", len(ds.Observations))

	// Stage 3: a policy sweep scored twice — the second pass replays the
	// identical batch so every evaluation is a memoization hit, which is
	// what the sweep stage's cache annotations exist to show.
	base := profiler.Condition{
		Utilization: 0.75, ArrivalKind: dist.KindExponential,
		RefillTime: 200, BudgetPct: 0.25,
	}
	var grid []core.Scenario
	for _, to := range []float64{20, 60, 120} {
		cond := base
		cond.Timeout = to
		grid = append(grid, core.Scenario{Cond: cond})
	}
	for pass := 0; pass < 2; pass++ {
		if _, err := h.PredictAllCtx(ctx, ds, grid); err != nil {
			return fmt.Errorf("pipeline: sweep pass %d: %w", pass, err)
		}
	}
	logg.Infof("pipeline: swept %d policies twice (second pass memoized)", len(grid))

	// Stage 4: anneal the timeout space for the best expected RT.
	obj := func(timeouts []float64) ([]float64, error) {
		scs := make([]core.Scenario, len(timeouts))
		for i, to := range timeouts {
			cond := base
			cond.Timeout = to
			scs[i] = core.Scenario{Cond: cond}
		}
		preds, err := h.PredictAllCtx(ctx, ds, scs)
		if err != nil {
			return nil, err
		}
		rts := make([]float64, len(preds))
		for i, pr := range preds {
			rts[i] = pr.MeanRT
		}
		return rts, nil
	}
	res, err := explore.MinimizeTimeoutBatchCtx(ctx, obj, 0, 300,
		explore.BatchOptions{Options: explore.Options{MaxIter: p.iters, Seed: p.seed}})
	if err != nil {
		return fmt.Errorf("pipeline: explore: %w", err)
	}
	logg.Infof("pipeline: explored timeouts, best %.1f s (mean RT %.2f s)", res.Point[0], res.RT)

	// Stage 5: online re-selection under drifting load, every decision
	// ledgered.
	ledger := online.NewDecisionLedger()
	fc, err := online.NewFallbackController(online.FallbackConfig{
		Primary:  h,
		Fallback: &core.NoML{SimQueries: p.simQueries, SimReps: 1, Seed: p.seed + 17},
		Dataset:  ds, Base: base,
		MaxTimeout: 300, AnnealIter: 12, Seed: p.seed,
		Ledger: ledger,
	})
	if err != nil {
		return fmt.Errorf("pipeline: online: %w", err)
	}
	baseRate := base.Utilization * ds.ServiceRate
	lastTO := 0.0
	for i := 0; i < p.steps; i++ {
		// Alternate ±25% around the base rate: every step drifts past
		// the retune threshold, so each decision re-runs the search.
		drift := 0.25
		if i%2 == 1 {
			drift = -0.25
		}
		rate := baseRate * (1 + drift)
		to, err := fc.TimeoutCtx(ctx, rate)
		if err != nil {
			return fmt.Errorf("pipeline: online step %d: %w", i, err)
		}
		lastTO = to
	}
	fmt.Printf("pipeline: best explored timeout %.1f s, final online timeout %.1f s over %d decisions (tier %s)\n",
		res.Point[0], lastTO, ledger.Len(), fc.Level())

	if p.decisionsOut != "" {
		if err := trace.SaveDecisions(p.decisionsOut, ledger.Records()); err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
		logg.Infof("pipeline: %d decision record(s) written to %s", ledger.Len(), p.decisionsOut)
	}
	return nil
}
