package experiments

import (
	"context"
	"fmt"
	"time"

	"mdsprint/internal/calib"
	"mdsprint/internal/core"
	"mdsprint/internal/dist"
	"mdsprint/internal/forest"
	"mdsprint/internal/mech"
	"mdsprint/internal/profiler"
	"mdsprint/internal/queuesim"
	"mdsprint/internal/stats"
	"mdsprint/internal/workload"
)

// AblationsResult quantifies the design choices DESIGN.md calls out:
// event-driven vs tick-stepped simulation, bisection vs the paper's
// exhaustive calibration stepping, and forest structure (depth, ensemble
// size, leaf model).
type AblationsResult struct {
	// Simulator: wall-clock per 2000-query run and mean-RT agreement.
	EventNsPerRun    float64
	Tick10msNsPerRun float64
	TickAgreement    float64 // |eventRT - tickRT| / eventRT

	// Calibration: median residual and wall-clock per observation.
	BisectionResid   float64
	BisectionNsPerOb float64
	SteppingResid    float64
	SteppingNsPerOb  float64

	// Forest: held-out effective-rate error per configuration.
	ForestConfigs []struct {
		Name  string
		Error float64
	}
}

// Ablations runs all three studies at the lab's scale.
func Ablations(lab *Lab) (AblationsResult, error) {
	var res AblationsResult

	// --- Simulator: event vs tick -----------------------------------
	mu := 0.02
	simP := queuesim.Params{
		ArrivalRate: 0.8 * mu,
		Service:     dist.LogNormalFromMeanCV(1/mu, 0.3),
		ServiceRate: mu,
		SprintRate:  1.6 * mu,
		Timeout:     60, BudgetSeconds: 300, RefillTime: 200,
		NumQueries: 2000, Warmup: 200, Seed: lab.Scale.Seed + 201,
	}
	const simReps = 5
	start := time.Now()
	var evRT float64
	for i := 0; i < simReps; i++ {
		evRT = queuesim.MustRun(simP).MeanRT()
	}
	res.EventNsPerRun = float64(time.Since(start).Nanoseconds()) / simReps
	start = time.Now()
	var tkRT float64
	for i := 0; i < simReps; i++ {
		r, err := queuesim.RunTick(simP, 0.01)
		if err != nil {
			return res, err
		}
		tkRT = r.MeanRT()
	}
	res.Tick10msNsPerRun = float64(time.Since(start).Nanoseconds()) / simReps
	res.TickAgreement = stats.AbsRelError(tkRT, evRT)

	// --- Calibration: bisection vs stepping --------------------------
	p := &profiler.Profiler{
		Mix:           workload.SingleClass(workload.MustByName("Jacobi")),
		Mechanism:     mech.DVFS{},
		QueriesPerRun: lab.Scale.ProfQueries,
		Replications:  2,
		Seed:          lab.Scale.Seed + 203,
	}
	ds := p.Profile(profiler.PaperGrid().Sample(40, lab.Scale.Seed+7))
	runCalib := func(o calib.Options) (resid, nsPerObs float64) {
		start := time.Now()
		var errs []float64
		for _, obs := range ds.Observations {
			rec := calib.EffectiveRate(ds, obs, o)
			errs = append(errs, rec.RelError())
		}
		return stats.Median(errs), float64(time.Since(start).Nanoseconds()) / float64(len(ds.Observations))
	}
	base := lab.calibOptions()
	res.BisectionResid, res.BisectionNsPerOb = runCalib(base)
	stepping := base
	stepping.Stepping = true
	stepping.StepQPH = 0.5
	stepping.MaxIter = 100
	res.SteppingResid, res.SteppingNsPerOb = runCalib(stepping)

	// --- Forest structure --------------------------------------------
	// End-to-end: calibrate a 70% training split once, fit each forest
	// configuration on the same calibrated rows, and compare held-out
	// response-time error (mu_e-space error would mostly measure
	// calibration noise in RT-insensitive regions).
	trainObs, testObs := profiler.SplitObservations(ds.Observations, 0.7, lab.Scale.Seed+211)
	recs, err := calib.CalibrateDatasetCtx(context.TODO(), ds, trainObs, base)
	if err != nil {
		return res, err
	}
	var samples []forest.Sample
	for i, rec := range recs {
		obs := trainObs[i]
		samples = append(samples, forest.Sample{
			Features: core.Features(ds, core.Scenario{Cond: obs.Cond, ArrivalRate: obs.ArrivalRate}),
			X:        rec.MarginalRate,
			Y:        rec.EffectiveRate,
		})
	}
	for _, cfg := range []struct {
		name string
		c    forest.Config
	}{
		{"paper (10 deep trees, linear leaves)", forest.Config{Trees: 10, FeatureFrac: 0.9}},
		{"mean leaves", forest.Config{Trees: 10, FeatureFrac: 0.9, MeanLeaves: true}},
		{"depth 2", forest.Config{Trees: 10, FeatureFrac: 0.9, MaxDepth: 2}},
		{"single tree", forest.Config{Trees: 1, FeatureFrac: 1}},
		{"50 trees", forest.Config{Trees: 50, FeatureFrac: 0.9}},
	} {
		c := cfg.c
		c.Seed = lab.Scale.Seed + 209
		fo, err := forest.Train(samples, core.FeatureNames(), c)
		if err != nil {
			return res, err
		}
		h := core.NewHybridFromForest(fo, lab.Scale.SimQueries, lab.Scale.SimReps, 1, lab.Scale.Seed+13)
		ev, err := core.Evaluate(h, ds, testObs)
		if err != nil {
			return res, err
		}
		res.ForestConfigs = append(res.ForestConfigs, struct {
			Name  string
			Error float64
		}{cfg.name, stats.Median(ev.Errors)})
	}
	return res, nil
}

// Table renders the ablation studies' accuracy cells, which are
// deterministic; TimingTable holds the host-dependent wall-clock cells.
func (r AblationsResult) Table() Table {
	t := Table{
		Title:   "Ablations — simulator engine, calibration search, forest structure",
		Columns: []string{"study", "variant", "metric", "value"},
	}
	t.AddRow("simulator", "agreement", "mean-RT delta", pct(r.TickAgreement))
	t.AddRow("calibration", "bisection", "median residual", pct(r.BisectionResid))
	t.AddRow("calibration", "stepping 0.5 qph (paper)", "median residual", pct(r.SteppingResid))
	for _, fc := range r.ForestConfigs {
		t.AddRow("forest", fc.Name, "held-out RT error", pct(fc.Error))
	}
	t.AddNote("forest ablation is within a single (workload, mechanism) dataset, where mu_m is constant: linear and mean leaves coincide and ensemble structure matters little; the linear-leaf advantage appears on cross-regime data (TestForestLeafModelAblation) and the ensemble's bias reduction in Figure 7's aggregate")
	return t
}

// TimingTable renders the ablation studies' wall-clock cells, which
// depend on the host.
func (r AblationsResult) TimingTable() Table {
	t := Table{
		Title:   "Ablations — wall clock on this host",
		Columns: []string{"study", "variant", "metric", "value"},
	}
	t.AddRow("simulator", "event-driven", "ms / 2000-query run", fmt.Sprintf("%.2f", r.EventNsPerRun/1e6))
	t.AddRow("simulator", "tick-stepped (10ms)", "ms / 2000-query run", fmt.Sprintf("%.2f", r.Tick10msNsPerRun/1e6))
	t.AddRow("calibration", "bisection", "ms / observation", fmt.Sprintf("%.0f", r.BisectionNsPerOb/1e6))
	t.AddRow("calibration", "stepping 0.5 qph (paper)", "ms / observation", fmt.Sprintf("%.0f", r.SteppingNsPerOb/1e6))
	t.AddNote("Algorithm 1's reference uses 1 us ticks; at the 10 ms ticks benchmarked here the tick engine is already ~%.0fx slower than event scheduling", r.Tick10msNsPerRun/r.EventNsPerRun)
	return t
}
