package tier

// Differential validation of the staged estimator: across a grid of
// discipline × dispatcher × service-distribution configurations, every
// answer a tiered estimator serves must land within its advertised
// error bound of the always-full baseline, and the whole tiered run
// must be reproducible — run twice from fresh state, bit-identical
// answers and identical tier choices, at any sweep worker count.

import (
	"math"
	"testing"

	"mdsprint/internal/dist"
	"mdsprint/internal/obs"
	"mdsprint/internal/queuesim"
	"mdsprint/internal/queuesim/dispatch"
	"mdsprint/internal/sweep"
)

// diffGrid covers the behavioural axes the PR 8 scheduling work added:
// every discipline with a closed form (and SERPT without one), the
// multi-queue dispatchers, light- and heavy-tailed service, and sprint
// configs the analytic gate must refuse.
func diffGrid() []sweep.Task {
	mustRandomD := func(d int) queuesim.Dispatcher {
		disp, err := dispatch.RandomD(d)
		if err != nil {
			panic(err)
		}
		return disp
	}
	base := func(lambda, mu float64, seed uint64) queuesim.Params {
		return queuesim.Params{
			ArrivalRate: lambda,
			Service:     dist.NewExponential(mu),
			ServiceRate: mu,
			Timeout:     -1,
			NumQueries:  3000,
			Seed:        seed,
		}
	}
	var tasks []sweep.Task
	add := func(p queuesim.Params) { tasks = append(tasks, sweep.Task{Params: p, Reps: 2}) }

	// Single-queue disciplines over exponential service.
	for i, kind := range []queuesim.DisciplineKind{
		queuesim.DiscFIFO, queuesim.DiscLIFO, queuesim.DiscSRPT, queuesim.DiscPS,
	} {
		p := base(0.6, 1, 100+uint64(i))
		p.Discipline = queuesim.Discipline{Kind: kind}
		add(p)
	}
	// SERPT: no closed form exists; the grid keeps one so the gate's
	// rejection path is part of the differential surface.
	{
		p := base(0.6, 1, 110)
		p.Discipline = queuesim.Discipline{Kind: queuesim.DiscSERPT, PredictCV: 0.5}
		add(p)
	}
	// Non-exponential service: deterministic (P-K route), uniform,
	// heavy-tailed log-normal under FIFO and PS.
	{
		p := base(0.6, 1, 120)
		p.Service = dist.Deterministic{Value: 1}
		add(p)
	}
	{
		p := base(0.6, 1, 121)
		p.Service = dist.Uniform{Lo: 0.4, Hi: 1.6}
		add(p)
	}
	{
		p := base(0.5, 1, 122)
		p.Service = dist.LogNormalFromMeanCV(1, 1.8)
		add(p)
	}
	{
		p := base(0.5, 1, 123)
		p.Service = dist.LogNormalFromMeanCV(1, 1.8)
		p.Discipline = queuesim.Discipline{Kind: queuesim.DiscPS}
		add(p)
	}
	// Multi-queue dispatchers (Servers > 1 is outside every closed
	// form except the central-queue M/M/k, which these are not).
	for i, d := range []queuesim.Dispatcher{
		dispatch.JSQ(), dispatch.RoundRobin(), dispatch.LeastWork(), mustRandomD(2),
	} {
		p := base(1.4, 1, 130+uint64(i))
		p.Servers = 2
		p.Dispatch = d
		add(p)
	}
	// Sprinting configurations: the analytic gate must refuse these and
	// the simulation tiers must still honor the bound.
	{
		p := base(8, 10, 140)
		p.SprintRate, p.Timeout, p.BudgetSeconds, p.RefillTime = 18, 0.12, 20, 80
		add(p)
	}
	{
		p := base(8, 10, 141)
		p.SprintRate, p.Timeout, p.BudgetSeconds, p.RefillTime = 16, 0.2, 6, 10
		p.Slots = 2
		add(p)
	}
	return tasks
}

// runTiered evaluates the grid on a fresh tiered estimator and returns
// answers and decisions.
func runTiered(t *testing.T, spec Spec, workers int, tasks []sweep.Task) ([]queuesim.Prediction, []Decision) {
	t.Helper()
	est, err := New(spec, Options{
		Engine:  sweep.New(sweep.Options{Workers: workers, Metrics: obs.NewRegistry()}),
		Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	preds := make([]queuesim.Prediction, len(tasks))
	decs := make([]Decision, len(tasks))
	for i, task := range tasks {
		p, d, err := est.Estimate(task)
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
		preds[i] = p
		decs[i] = d
	}
	return preds, decs
}

// TestDifferentialTieredVsFull is the acceptance property: every tiered
// answer within its advertised bound of the always-full baseline.
func TestDifferentialTieredVsFull(t *testing.T) {
	tasks := diffGrid()
	spec := Spec{Bound: 0.2}

	// Ground truth: the same grid through a fully-degenerate estimator
	// (every cheap tier off), which by construction is engine full-rep.
	truth, truthDecs := runTiered(t, Spec{Bound: spec.Bound, NoAnalytic: true, NoCache: true, NoShort: true}, 4, tasks)
	for i, d := range truthDecs {
		if d.Tier != TierFull {
			t.Fatalf("baseline task %d served by %v", i, d.Tier)
		}
	}

	preds, decs := runTiered(t, spec, 4, tasks)
	tiersSeen := map[Tier]int{}
	for i := range tasks {
		tiersSeen[decs[i].Tier]++
		rel := math.Abs(preds[i].MeanRT-truth[i].MeanRT) / truth[i].MeanRT
		if rel > decs[i].Bound {
			t.Errorf("task %d (%s): tiered %.6g vs full %.6g — relative error %.4f exceeds bound %.2f (tier %v)",
				i, tasks[i].Params.Service, preds[i].MeanRT, truth[i].MeanRT, rel, decs[i].Bound, decs[i].Tier)
		}
		if decs[i].ErrEstimate > decs[i].Bound {
			t.Errorf("task %d: advertised estimate %.4f exceeds bound %.2f", i, decs[i].ErrEstimate, decs[i].Bound)
		}
	}
	// The grid must actually exercise the ladder: analytic answers for
	// the closed-form shapes, simulation tiers for the rest.
	if tiersSeen[TierAnalytic] == 0 {
		t.Errorf("grid never used the analytic tier: %v", tiersSeen)
	}
	if tiersSeen[TierShort]+tiersSeen[TierFull] == 0 {
		t.Errorf("grid never escalated to simulation: %v", tiersSeen)
	}
	t.Logf("tier usage across %d tasks: %v", len(tasks), tiersSeen)
}

// TestDifferentialRunTwiceDeterministic: the whole tiered run repeated
// from fresh state is bit-identical — answers and tier decisions.
func TestDifferentialRunTwiceDeterministic(t *testing.T) {
	tasks := diffGrid()
	spec := Spec{Bound: 0.2}
	p1, d1 := runTiered(t, spec, 4, tasks)
	p2, d2 := runTiered(t, spec, 4, tasks)
	for i := range tasks {
		if predBits(p1[i]) != predBits(p2[i]) {
			t.Fatalf("task %d: run 1 %+v != run 2 %+v", i, p1[i], p2[i])
		}
		if d1[i] != d2[i] {
			t.Fatalf("task %d: decisions differ: %+v vs %+v", i, d1[i], d2[i])
		}
	}
}

// TestDifferentialWorkerCountInvariant: the tiered run is bit-identical
// at any sweep worker count.
func TestDifferentialWorkerCountInvariant(t *testing.T) {
	tasks := diffGrid()
	spec := Spec{Bound: 0.2}
	ref, refDecs := runTiered(t, spec, 1, tasks)
	preds, decs := runTiered(t, spec, 8, tasks)
	for i := range tasks {
		if predBits(preds[i]) != predBits(ref[i]) {
			t.Fatalf("workers=8 task %d: %+v != workers=1 %+v", i, preds[i], ref[i])
		}
		if decs[i] != refDecs[i] {
			t.Fatalf("workers=8 task %d: decision %+v != %+v", i, decs[i], refDecs[i])
		}
	}
}

// TestDifferentialBoundSweep re-runs the bound-honoring check at a
// tighter bound, where more of the grid escalates: the property must
// hold at every operating point, not just the loose one.
func TestDifferentialBoundSweep(t *testing.T) {
	tasks := diffGrid()
	truth, _ := runTiered(t, Spec{NoAnalytic: true, NoCache: true, NoShort: true}, 4, tasks)
	for _, bound := range []float64{0.3, 0.1, 0.05} {
		preds, decs := runTiered(t, Spec{Bound: bound}, 4, tasks)
		for i := range tasks {
			rel := math.Abs(preds[i].MeanRT-truth[i].MeanRT) / truth[i].MeanRT
			if rel > bound {
				t.Errorf("bound %.2f task %d: relative error %.4f (tier %v)", bound, i, rel, decs[i].Tier)
			}
		}
	}
}
