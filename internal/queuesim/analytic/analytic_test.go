package analytic_test

import (
	"errors"
	"math"
	"testing"

	"mdsprint/internal/dist"
	"mdsprint/internal/queuesim"
	"mdsprint/internal/queuesim/analytic"
	"mdsprint/internal/stats"
)

// noSprint builds a sprint-disabled configuration with exponential
// arrivals — the shape every closed form requires.
func noSprint(lambda float64, service dist.Dist, mu float64) queuesim.Params {
	return queuesim.Params{
		ArrivalRate:   lambda,
		ArrivalKind:   dist.KindExponential,
		Service:       service,
		ServiceRate:   mu,
		SprintRate:    2 * mu, // irrelevant: policy below disables sprinting
		Timeout:       -1,
		BudgetSeconds: 0,
	}
}

func simMeanRT(t *testing.T, p queuesim.Params, queries int, seed uint64) float64 {
	t.Helper()
	p.NumQueries = queries
	p.Warmup = queries / 10
	p.Seed = seed
	return stats.Mean(queuesim.MustRun(p).RTs)
}

// TestMM1MMKAgainstSimulation is the promoted half of queuesim's own
// analytic validation: the reusable package's M/M/1 and Erlang-C
// answers must match simulation at the same tolerance schedule the
// simulator is held to (wider near saturation).
func TestMM1MMKAgainstSimulation(t *testing.T) {
	points := []struct {
		lambda, mu float64
		k          int
		tol        float64
	}{
		{lambda: 0.3, mu: 1, k: 1, tol: 0.04},
		{lambda: 0.7, mu: 1, k: 1, tol: 0.06},
		{lambda: 0.9, mu: 1, k: 1, tol: 0.12},
		{lambda: 1.5, mu: 1, k: 2, tol: 0.06},
		{lambda: 2.8, mu: 1, k: 4, tol: 0.06},
	}
	for _, pt := range points {
		p := noSprint(pt.lambda, dist.NewExponential(pt.mu), pt.mu)
		p.Slots = pt.k
		want, err := analytic.MeanRT(p)
		if err != nil {
			t.Fatalf("lambda=%v k=%d: unexpected rejection %v", pt.lambda, pt.k, err)
		}
		if pt.k == 1 {
			if mm1 := analytic.MM1MeanRT(pt.lambda, pt.mu); !stats.ApproxEqual(want, mm1, 1e-12) {
				t.Fatalf("k=1 route %v disagrees with MM1 form %v", want, mm1)
			}
		}
		got := simMeanRT(t, p, 60000, 11)
		if rel := math.Abs(got-want) / want; rel > pt.tol {
			t.Errorf("lambda=%v mu=%v k=%d: simulated %.4f vs analytic %.4f (rel err %.3f > %.3f)",
				pt.lambda, pt.mu, pt.k, got, want, rel, pt.tol)
		}
	}
}

// TestMG1PollaczekKhinchine validates the P-K route on non-exponential
// service: deterministic (cv=0, half the M/M/1 wait), uniform, and a
// finite-second-moment truncated Pareto.
func TestMG1PollaczekKhinchine(t *testing.T) {
	cases := []struct {
		name    string
		service dist.Dist
		lambda  float64
		tol     float64
	}{
		{"md1", dist.Deterministic{Value: 1}, 0.6, 0.05},
		{"uniform", dist.Uniform{Lo: 0.5, Hi: 1.5}, 0.6, 0.05},
		{"tpareto", dist.TruncatedPareto{Xm: 0.4, Alpha: 1.6, Max: 12}, 0.5, 0.09},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			meanS := tc.service.Mean()
			p := noSprint(tc.lambda, tc.service, 1/meanS)
			want, err := analytic.MeanRT(p)
			if err != nil {
				t.Fatalf("unexpected rejection: %v", err)
			}
			m2, ok := dist.SecondMoment(tc.service)
			if !ok {
				t.Fatalf("second moment unavailable for %v", tc.service)
			}
			if pk := analytic.MG1MeanRT(tc.lambda, meanS, m2); !stats.ApproxEqual(want, pk, 1e-12) {
				t.Fatalf("route %v disagrees with direct P-K %v", want, pk)
			}
			got := simMeanRT(t, p, 80000, 17)
			if rel := math.Abs(got-want) / want; rel > tc.tol {
				t.Errorf("%s: simulated %.4f vs P-K %.4f (rel err %.3f > %.3f)",
					tc.name, got, want, rel, tc.tol)
			}
		})
	}
}

// TestPSAndSRPTAndLIFORoutes validates the remaining discipline routes:
// PS insensitivity (lognormal service, mean-only), the Schrage–Miller
// SRPT form, and LIFO sharing FIFO's mean.
func TestPSAndSRPTAndLIFORoutes(t *testing.T) {
	t.Run("ps-insensitivity", func(t *testing.T) {
		service := dist.LogNormalFromMeanCV(1, 1.5)
		p := noSprint(0.6, service, 1)
		p.Discipline = queuesim.Discipline{Kind: queuesim.DiscPS}
		want, err := analytic.MeanRT(p)
		if err != nil {
			t.Fatalf("unexpected rejection: %v", err)
		}
		if !stats.ApproxEqual(want, 1/(1-0.6), 1e-9) {
			t.Fatalf("PS mean %v != E[S]/(1-rho) %v", want, 1/(1-0.6))
		}
		got := simMeanRT(t, p, 60000, 23)
		if rel := math.Abs(got-want) / want; rel > 0.08 {
			t.Errorf("PS: simulated %.4f vs insensitivity %.4f (rel err %.3f)", got, want, rel)
		}
	})
	t.Run("srpt", func(t *testing.T) {
		p := noSprint(0.8, dist.NewExponential(1), 1)
		p.Discipline = queuesim.Discipline{Kind: queuesim.DiscSRPT}
		want, err := analytic.MeanRT(p)
		if err != nil {
			t.Fatalf("unexpected rejection: %v", err)
		}
		if fifo := analytic.MM1MeanRT(0.8, 1); want >= fifo {
			t.Fatalf("SRPT closed form %.4f >= FIFO %.4f; integration bug", want, fifo)
		}
		got := simMeanRT(t, p, 60000, 59)
		if rel := math.Abs(got-want) / want; rel > 0.06 {
			t.Errorf("SRPT: simulated %.4f vs Schrage–Miller %.4f (rel err %.3f)", got, want, rel)
		}
	})
	t.Run("lifo-equals-fifo-mean", func(t *testing.T) {
		p := noSprint(0.7, dist.NewExponential(1), 1)
		p.Discipline = queuesim.Discipline{Kind: queuesim.DiscLIFO}
		want, err := analytic.MeanRT(p)
		if err != nil {
			t.Fatalf("unexpected rejection: %v", err)
		}
		if !stats.ApproxEqual(want, analytic.MM1MeanRT(0.7, 1), 1e-12) {
			t.Fatalf("LIFO mean %v != FIFO mean %v", want, analytic.MM1MeanRT(0.7, 1))
		}
		got := simMeanRT(t, p, 60000, 71)
		if rel := math.Abs(got-want) / want; rel > 0.08 {
			t.Errorf("LIFO: simulated %.4f vs analytic %.4f (rel err %.3f)", got, want, rel)
		}
	})
}

// TestRejections pins every out-of-applicability path to its typed
// error — the gate is what keeps the cheap tier from answering
// questions the closed forms cannot.
func TestRejections(t *testing.T) {
	base := func() queuesim.Params { return noSprint(0.6, dist.NewExponential(1), 1) }
	cases := []struct {
		name string
		mut  func(*queuesim.Params)
		want error
	}{
		{"sprinting-on", func(p *queuesim.Params) {
			p.Timeout = 1
			p.BudgetSeconds = 50
			p.RefillTime = 100
		}, analytic.ErrSprinting},
		{"pareto-arrivals", func(p *queuesim.Params) {
			p.ArrivalKind = dist.KindPareto
		}, analytic.ErrArrival},
		{"arrival-dist-override", func(p *queuesim.Params) {
			p.Arrival = dist.Uniform{Lo: 0.5, Hi: 2.5}
		}, analytic.ErrArrival},
		{"multi-queue", func(p *queuesim.Params) {
			p.Servers = 4
		}, analytic.ErrMultiQueue},
		{"serpt", func(p *queuesim.Params) {
			p.Discipline = queuesim.Discipline{Kind: queuesim.DiscSERPT, PredictCV: 0.5}
		}, analytic.ErrDiscipline},
		{"pareto-service-infinite-m2", func(p *queuesim.Params) {
			p.Service = dist.Pareto{Xm: 0.5, Alpha: 1.8}
		}, analytic.ErrService},
		{"no-second-moment", func(p *queuesim.Params) {
			p.Service = opaqueDist{}
		}, analytic.ErrService},
		{"mg-k", func(p *queuesim.Params) {
			p.Service = dist.Deterministic{Value: 1}
			p.Slots = 2
		}, analytic.ErrMultiSlot},
		{"srpt-non-exp-service", func(p *queuesim.Params) {
			p.Service = dist.Deterministic{Value: 1}
			p.Discipline = queuesim.Discipline{Kind: queuesim.DiscSRPT}
		}, analytic.ErrService},
		{"overloaded", func(p *queuesim.Params) {
			p.ArrivalRate = 1.2
		}, analytic.ErrUnstable},
		{"ps-multi-slot", func(p *queuesim.Params) {
			p.Discipline = queuesim.Discipline{Kind: queuesim.DiscPS}
			p.Slots = 3
		}, analytic.ErrMultiSlot},
		{"invalid-rate", func(p *queuesim.Params) {
			p.ArrivalRate = 0
		}, analytic.ErrInvalid},
		{"infinite-mean-service", func(p *queuesim.Params) {
			p.Service = dist.Pareto{Xm: 0.5, Alpha: 0.9}
		}, analytic.ErrService},
		{"ps-overloaded", func(p *queuesim.Params) {
			p.Discipline = queuesim.Discipline{Kind: queuesim.DiscPS}
			p.ArrivalRate = 1.2
		}, analytic.ErrUnstable},
		{"srpt-multi-slot", func(p *queuesim.Params) {
			p.Discipline = queuesim.Discipline{Kind: queuesim.DiscSRPT}
			p.Slots = 2
		}, analytic.ErrMultiSlot},
		{"srpt-overloaded", func(p *queuesim.Params) {
			p.Discipline = queuesim.Discipline{Kind: queuesim.DiscSRPT}
			p.ArrivalRate = 1.2
		}, analytic.ErrUnstable},
		{"mg1-overloaded", func(p *queuesim.Params) {
			p.Service = dist.Deterministic{Value: 1}
			p.ArrivalRate = 1.2
		}, analytic.ErrUnstable},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := base()
			tc.mut(&p)
			if _, err := analytic.MeanRT(p); !errors.Is(err, tc.want) {
				t.Fatalf("MeanRT rejection = %v, want %v", err, tc.want)
			}
		})
	}
	// And the happy path: an eligible config reports nil.
	p := base()
	if _, err := analytic.MeanRT(p); err != nil {
		t.Fatalf("eligible config rejected: %v", err)
	}
}

// opaqueDist is a distribution outside the moment catalog.
type opaqueDist struct{}

func (opaqueDist) Sample(*dist.RNG) float64 { return 1 }
func (opaqueDist) Mean() float64            { return 1 }
func (opaqueDist) String() string           { return "opaque" }

// TestMeanRTZeroAllocs pins the success and rejection paths
// allocation-free: the tier estimator consults this gate on every
// decide, so it must not disturb sprintd's pooled hot path.
func TestMeanRTZeroAllocs(t *testing.T) {
	ok := noSprint(0.6, dist.NewExponential(1), 1)
	rej := ok
	rej.Timeout = 1
	rej.BudgetSeconds = 50
	if n := testing.AllocsPerRun(200, func() {
		if _, err := analytic.MeanRT(ok); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("MeanRT success path allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := analytic.MeanRT(rej); err == nil {
			t.Fatal("expected rejection")
		}
	}); n != 0 {
		t.Errorf("MeanRT rejection path allocates %v/op, want 0", n)
	}
}
