package queuesim

import (
	"math"
	"testing"

	"mdsprint/internal/dist"
	"mdsprint/internal/mech"
	"mdsprint/internal/sprint"
	"mdsprint/internal/stats"
	"mdsprint/internal/testbed"
	"mdsprint/internal/workload"
)

func TestValidate(t *testing.T) {
	bad := []Params{
		{},
		{ArrivalRate: 1},
		{ArrivalRate: 1, Service: dist.Deterministic{Value: 1}},
		{ArrivalRate: 1, Service: dist.Deterministic{Value: 1}, ServiceRate: 1, SprintRate: -1},
		{ArrivalRate: 1, Service: dist.Deterministic{Value: 1}, ServiceRate: 1, Warmup: -1},
	}
	for i, p := range bad {
		if _, err := Run(p); err == nil {
			t.Errorf("params %d accepted: %+v", i, p)
		}
	}
}

// TestMM1 checks the simulator against the closed-form M/M/1 response
// time, the validation the paper reports as 5% median error on classic
// MMK workloads (Section 3.1).
func TestMM1(t *testing.T) {
	mu := 0.1
	for _, rho := range []float64{0.3, 0.5, 0.75, 0.95} {
		p := Params{
			ArrivalRate: rho * mu,
			Service:     dist.NewExponential(mu),
			ServiceRate: mu,
			Timeout:     -1,
			NumQueries:  80000,
			Warmup:      8000,
			Seed:        3,
		}
		res := MustRun(p)
		want := 1 / (mu - p.ArrivalRate)
		if got := res.MeanRT(); math.Abs(got-want)/want > 0.07 {
			t.Errorf("rho=%v: RT %v, want %v", rho, got, want)
		}
	}
}

// TestMM2ErlangC validates the multi-slot path against the M/M/2 closed
// form: P(wait) from the Erlang-C formula, mean wait P_wait/(k*mu-lambda).
func TestMM2ErlangC(t *testing.T) {
	mu := 0.05
	for _, rho := range []float64{0.5, 0.8} {
		lambda := rho * 2 * mu // per-server utilization rho with k=2
		a := lambda / mu
		pWait := (a * a / (2 * (1 - rho))) / (1 + a + a*a/(2*(1-rho)))
		wantWait := pWait / (2*mu - lambda)
		p := Params{
			ArrivalRate: lambda,
			Service:     dist.NewExponential(mu),
			ServiceRate: mu,
			Timeout:     -1,
			Slots:       2,
			NumQueries:  80000,
			Warmup:      8000,
			Seed:        41,
		}
		res := MustRun(p)
		got := stats.Mean(res.QueueingTimes)
		if math.Abs(got-wantWait)/wantWait > 0.08 {
			t.Errorf("rho=%v: M/M/2 wait %v, want %v", rho, got, wantWait)
		}
	}
}

// TestMG1PollaczekKhinchine validates general service (M/G/1): mean wait
// = lambda E[S^2] / (2 (1 - rho)).
func TestMG1PollaczekKhinchine(t *testing.T) {
	mean, cv := 10.0, 0.5
	svc := dist.LogNormalFromMeanCV(mean, cv)
	mu := 1 / mean
	rho := 0.7
	lambda := rho * mu
	p := Params{
		ArrivalRate: lambda,
		Service:     svc,
		ServiceRate: mu,
		Timeout:     -1,
		NumQueries:  80000,
		Warmup:      8000,
		Seed:        5,
	}
	res := MustRun(p)
	es2 := mean * mean * (1 + cv*cv)
	want := lambda * es2 / (2 * (1 - rho))
	if got := stats.Mean(res.QueueingTimes); math.Abs(got-want)/want > 0.08 {
		t.Fatalf("M/G/1 wait %v, want %v", got, want)
	}
}

// TestEquation1MidSprint verifies the core sprint arithmetic with a
// deterministic single query: timeout at 50 s into a 100 s execution with
// speedup 2 departs at 75 s.
func TestEquation1MidSprint(t *testing.T) {
	p := Params{
		ArrivalRate:   1e-5, // one query at a time
		ArrivalKind:   dist.KindDeterministic,
		Service:       dist.Deterministic{Value: 100},
		ServiceRate:   0.01,
		SprintRate:    0.02,
		Timeout:       50,
		BudgetSeconds: 1e9,
		RefillTime:    1,
		NumQueries:    5,
		Seed:          1,
	}
	res := MustRun(p)
	for i, rt := range res.RTs {
		if math.Abs(rt-75) > 1e-6 {
			t.Fatalf("query %d RT %v, want 75 (Eq. 1)", i, rt)
		}
	}
	if res.SprintedCount != len(res.RTs) {
		t.Fatalf("sprinted %d/%d", res.SprintedCount, len(res.RTs))
	}
}

// TestBudgetExhaustionReverts verifies the revert-to-sustained arithmetic:
// sprint from t=0 at speedup 2 with a 20 s budget covers 40% of a 100 s
// job, leaving 60 s at sustained rate: RT = 80 s.
func TestBudgetExhaustionReverts(t *testing.T) {
	p := Params{
		ArrivalRate:   1e-6,
		ArrivalKind:   dist.KindDeterministic,
		Service:       dist.Deterministic{Value: 100},
		ServiceRate:   0.01,
		SprintRate:    0.02,
		Timeout:       0,
		BudgetSeconds: 20,
		RefillTime:    1e12, // effectively no refill
		NumQueries:    1,
		Seed:          1,
	}
	res := MustRun(p)
	if len(res.RTs) != 1 {
		t.Fatalf("got %d results", len(res.RTs))
	}
	if math.Abs(res.RTs[0]-80) > 1e-6 {
		t.Fatalf("RT %v, want 80", res.RTs[0])
	}
}

func TestSprintingReducesRT(t *testing.T) {
	mu := 0.02
	base := Params{
		ArrivalRate: 0.85 * mu,
		Service:     dist.LogNormalFromMeanCV(1/mu, 0.3),
		ServiceRate: mu,
		Timeout:     -1,
		NumQueries:  20000,
		Warmup:      2000,
		Seed:        9,
	}
	off := MustRun(base)
	on := base
	on.SprintRate = 2 * mu
	on.Timeout = 60
	on.BudgetSeconds = 500
	on.RefillTime = 100
	sped := MustRun(on)
	if sped.MeanRT() >= off.MeanRT() {
		t.Fatalf("sprinting did not reduce RT: %v vs %v", sped.MeanRT(), off.MeanRT())
	}
	if sped.SprintedCount == 0 {
		t.Fatal("no sprints occurred")
	}
}

func TestSpeedupBelowOneSlowsSprints(t *testing.T) {
	// A calibrated sprint rate below the service rate expresses
	// net-negative sprints: the whole execution at speedup 0.5 takes
	// twice as long (Equation 2 allows negative x).
	p := Params{
		ArrivalRate:   1e-6,
		ArrivalKind:   dist.KindDeterministic,
		Service:       dist.Deterministic{Value: 100},
		ServiceRate:   0.01,
		SprintRate:    0.005, // speedup 0.5
		Timeout:       0,
		BudgetSeconds: 1e9,
		RefillTime:    1,
		NumQueries:    1,
		Seed:          1,
	}
	res := MustRun(p)
	if math.Abs(res.RTs[0]-200) > 1e-6 {
		t.Fatalf("RT %v, want 200 (speedup 0.5)", res.RTs[0])
	}
	// The arithmetic floor guards degenerate rates.
	p.SprintRate = 1e-9
	res = MustRun(p)
	if math.Abs(res.RTs[0]-1000) > 1e-6 {
		t.Fatalf("RT %v, want 1000 (speedup floored at 0.1)", res.RTs[0])
	}
}

func TestParetoArrivalsHeavierTail(t *testing.T) {
	mu := 0.02
	base := Params{
		ArrivalRate: 0.6 * mu,
		Service:     dist.LogNormalFromMeanCV(1/mu, 0.3),
		ServiceRate: mu,
		Timeout:     -1,
		NumQueries:  30000,
		Warmup:      3000,
		Seed:        11,
	}
	expRes := MustRun(base)
	par := base
	par.ArrivalKind = dist.KindPareto
	parRes := MustRun(par)
	// Heavy-tailed arrivals are burstier: tail response time grows.
	expP99 := stats.Quantile(expRes.RTs, 0.99)
	parP99 := stats.Quantile(parRes.RTs, 0.99)
	if parP99 <= expP99 {
		t.Fatalf("Pareto p99 %v <= exponential p99 %v", parP99, expP99)
	}
}

// TestCrossValidatesTestbed runs the ground-truth testbed with runtime
// effects disabled and the model simulator with the marginal rate: the
// two implementations must agree closely, establishing that model error
// in the experiments comes from the hidden runtime factors, not from
// queueing-logic drift between the two simulators.
func TestCrossValidatesTestbed(t *testing.T) {
	jacobi := workload.MustByName("Jacobi")
	mu := sprint.QPH(51)
	marginal := (mech.DVFS{}).MarginalSpeedup(jacobi)
	for _, util := range []float64{0.5, 0.9} {
		tbCfg := testbed.Config{
			Mix:                   workload.SingleClass(jacobi),
			Mechanism:             mech.DVFS{},
			Policy:                sprint.Policy{Timeout: 60, BudgetSeconds: 400, RefillTime: 200, Speedup: 1e9},
			ArrivalRate:           util * mu,
			NumQueries:            40000,
			Warmup:                4000,
			Seed:                  21,
			DisableRuntimeEffects: true,
		}
		tb := testbed.MustRun(tbCfg)
		qp := Params{
			ArrivalRate:   util * mu,
			Service:       dist.LogNormalFromMeanCV(1/mu, jacobi.ServiceCV),
			ServiceRate:   mu,
			SprintRate:    marginal * mu,
			Timeout:       60,
			BudgetSeconds: 400,
			RefillTime:    200,
			NumQueries:    40000,
			Warmup:        4000,
			Seed:          22,
		}
		qs := MustRun(qp)
		a, b := tb.MeanResponseTime(), qs.MeanRT()
		if math.Abs(a-b)/a > 0.05 {
			t.Errorf("util=%v: testbed RT %v vs queuesim RT %v", util, a, b)
		}
	}
}

func TestPredictPoolsReplications(t *testing.T) {
	mu := 0.02
	p := Params{
		ArrivalRate: 0.7 * mu,
		Service:     dist.LogNormalFromMeanCV(1/mu, 0.3),
		ServiceRate: mu,
		Timeout:     -1,
		NumQueries:  2000,
		Warmup:      200,
		Seed:        31,
	}
	pred, err := Predict(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pred.QueriesSimulated != 4*2000 {
		t.Fatalf("pooled %d queries, want 8000", pred.QueriesSimulated)
	}
	if pred.P99RT < pred.P95RT || pred.P95RT < pred.MeanRT*0.3 {
		t.Fatalf("prediction stats inconsistent: %+v", pred)
	}
	// Same seed: identical pooled mean.
	pred2, _ := Predict(p, 4)
	if pred.MeanRT != pred2.MeanRT {
		t.Fatal("Predict not deterministic")
	}
}

// TestTickCrossValidation checks the event-driven simulator against the
// Algorithm 1-style tick-stepped reference on identical pre-drawn
// workloads.
func TestTickCrossValidation(t *testing.T) {
	mu := 0.02
	for _, scenario := range []struct {
		name string
		p    Params
	}{
		{"no sprint", Params{
			ArrivalRate: 0.7 * mu, Service: dist.LogNormalFromMeanCV(1/mu, 0.4),
			ServiceRate: mu, Timeout: -1, NumQueries: 3000, Warmup: 300, Seed: 41,
		}},
		{"sprinting", Params{
			ArrivalRate: 0.8 * mu, Service: dist.LogNormalFromMeanCV(1/mu, 0.4),
			ServiceRate: mu, SprintRate: 1.8 * mu, Timeout: 40,
			BudgetSeconds: 300, RefillTime: 150, NumQueries: 3000, Warmup: 300, Seed: 42,
		}},
	} {
		ev := MustRun(scenario.p)
		tk, err := RunTick(scenario.p, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		a, b := ev.MeanRT(), tk.MeanRT()
		if math.Abs(a-b)/a > 0.03 {
			t.Errorf("%s: event %v vs tick %v", scenario.name, a, b)
		}
	}
}

func TestEmpiricalServiceResampling(t *testing.T) {
	// The production path: service times resampled from profiler data.
	samples := []float64{40, 45, 50, 55, 60}
	emp := dist.NewEmpirical(samples)
	p := Params{
		ArrivalRate: 0.5 / 50,
		Service:     emp,
		ServiceRate: 1.0 / 50,
		Timeout:     -1,
		NumQueries:  5000,
		Warmup:      500,
		Seed:        51,
	}
	res := MustRun(p)
	if res.MeanRT() < 50 {
		t.Fatalf("mean RT %v below mean service 50", res.MeanRT())
	}
}

func TestZeroQueries(t *testing.T) {
	p := Params{ArrivalRate: 1, Service: dist.Deterministic{Value: 1}, ServiceRate: 1}
	p.NumQueries = 0
	// withDefaults turns 0 into 1000, so ask for explicit tiny run.
	p.NumQueries = 1
	res := MustRun(p)
	if len(res.RTs) != 1 {
		t.Fatalf("got %d RTs", len(res.RTs))
	}
}

func BenchmarkRun1000Queries(b *testing.B) {
	mu := 0.02
	p := Params{
		ArrivalRate: 0.75 * mu,
		Service:     dist.LogNormalFromMeanCV(1/mu, 0.3),
		ServiceRate: mu,
		SprintRate:  1.5 * mu,
		Timeout:     60, BudgetSeconds: 300, RefillTime: 200,
		NumQueries: 1000, Warmup: 100,
	}
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i)
		MustRun(p)
	}
}
