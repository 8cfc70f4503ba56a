package queuesim_test

// Analytic validation of the multi-queue dispatchers. This file lives in
// the external test package so it can drive the real implementations in
// internal/queuesim/dispatch (which imports queuesim — an in-package
// test would cycle).

import (
	"math"
	"testing"

	"mdsprint/internal/dist"
	"mdsprint/internal/queuesim"
	"mdsprint/internal/queuesim/dispatch"
)

// mmDispatchParams builds a no-sprint M/M/k-style configuration fanned
// across servers by d.
func mmDispatchParams(lambda, mu float64, servers int, d queuesim.Dispatcher, queries int, seed uint64) queuesim.Params {
	return queuesim.Params{
		ArrivalRate:   lambda,
		Service:       dist.NewExponential(mu),
		ServiceRate:   mu,
		Timeout:       -1,
		BudgetSeconds: 0,
		Servers:       servers,
		Dispatch:      d,
		NumQueries:    queries,
		Warmup:        queries / 10,
		Seed:          seed,
	}
}

// erlangC2 is the M/M/2 probability of waiting (Erlang-C at k=2,
// offered load a = lambda/mu).
func erlangC2(a float64) float64 {
	sum := 1.0 + a
	top := a * a / 2 / (1 - a/2)
	return top / (sum + top)
}

// mm2MeanRT is the analytic M/M/2 mean response time.
func mm2MeanRT(lambda, mu float64) float64 {
	return erlangC2(lambda/mu)/(2*mu-lambda) + 1/mu
}

// TestJSQ2MM2Bounds checks join-shortest-queue over two servers against
// its published bracketing: a central-queue M/M/2 (perfect, commitment-
// free JSQ) is a lower bound on the mean response time, and a uniform
// random Bernoulli split into two M/M/1s an upper bound — with JSQ-2
// expected to land much closer to the M/M/2 side.
func TestJSQ2MM2Bounds(t *testing.T) {
	const lambda, mu = 1.5, 1.0
	const queries = 60000
	lower := mm2MeanRT(lambda, mu)   // 2.286 at rho=0.75
	upper := 1 / (mu - lambda/2)     // split M/M/1: 4.0
	mid := lower + 0.5*(upper-lower) // JSQ must beat the halfway point

	res := queuesim.MustRun(mmDispatchParams(lambda, mu, 2, dispatch.JSQ(), queries, 71))
	w := res.MeanRT()
	if w < lower*(1-0.03) {
		t.Errorf("JSQ-2 mean RT %.4f below the M/M/2 lower bound %.4f", w, lower)
	}
	if w > upper*(1+0.03) {
		t.Errorf("JSQ-2 mean RT %.4f above the random-split upper bound %.4f", w, upper)
	}
	if w > mid {
		t.Errorf("JSQ-2 mean RT %.4f worse than halfway to the random split (%.4f); dispatcher is not load-aware", w, mid)
	}
}

// TestRandomSplitClosedForm: rnd(1) is a Bernoulli split of the Poisson
// arrival stream, and a Bernoulli split of a Poisson process is Poisson —
// so each server is exactly an independent M/M/1 at lambda/2 and the
// closed form 1/(mu - lambda/2) applies exactly, not as a bound.
func TestRandomSplitClosedForm(t *testing.T) {
	const lambda, mu = 1.2, 1.0
	const queries = 60000
	want := 1 / (mu - lambda/2) // 2.5 at per-server rho=0.6

	rnd1, err := dispatch.RandomD(1)
	if err != nil {
		t.Fatal(err)
	}
	res := queuesim.MustRun(mmDispatchParams(lambda, mu, 2, rnd1, queries, 83))
	if rel := math.Abs(res.MeanRT()-want) / want; rel > 0.05 {
		t.Errorf("rnd(1) split mean RT %.4f vs split-M/M/1 closed form %.4f (rel err %.3f)",
			res.MeanRT(), want, rel)
	}
}

// TestRoundRobinSplitBounds: round-robin alternation thins the Poisson
// stream into per-server Erlang-2 arrivals — strictly less bursty than
// Poisson, so the mean response time must land strictly below the
// random-split M/M/1 value (the degenerate upper bound rnd(1) attains)
// while staying above the central-queue M/M/2 lower bound.
func TestRoundRobinSplitBounds(t *testing.T) {
	const lambda, mu = 1.2, 1.0
	const queries = 60000
	lower := mm2MeanRT(lambda, mu)
	upper := 1 / (mu - lambda/2)

	res := queuesim.MustRun(mmDispatchParams(lambda, mu, 2, dispatch.RoundRobin(), queries, 97))
	w := res.MeanRT()
	if w <= lower*(1-0.03) {
		t.Errorf("round-robin mean RT %.4f below the M/M/2 lower bound %.4f", w, lower)
	}
	if w >= upper {
		t.Errorf("round-robin mean RT %.4f not below the random-split value %.4f (E2 arrivals should help)", w, upper)
	}
}

// TestLeastWorkBeatsJSQUnderVariance: with high-variance service times,
// queue length is a poor proxy for backlog; least-work-left sees the
// actual remaining seconds and must not do worse than JSQ by more than
// noise (and random-d(2) must land between random and JSQ).
func TestLeastWorkBeatsJSQUnderVariance(t *testing.T) {
	const queries = 40000
	service := dist.LogNormalFromMeanCV(1, 2) // mean 1, cv 2
	base := queuesim.Params{
		ArrivalRate:   1.4,
		Service:       service,
		ServiceRate:   1,
		Timeout:       -1,
		BudgetSeconds: 0,
		Servers:       2,
		NumQueries:    queries,
		Warmup:        queries / 10,
		Seed:          13,
	}
	run := func(d queuesim.Dispatcher) float64 {
		p := base
		p.Dispatch = d
		return queuesim.MustRun(p).MeanRT()
	}
	rnd1, _ := dispatch.RandomD(1)
	rnd2, _ := dispatch.RandomD(2)
	wRand := run(rnd1)
	wRnd2 := run(rnd2)
	wJSQ := run(dispatch.JSQ())
	wLWL := run(dispatch.LeastWork())
	if wLWL > wJSQ*1.05 {
		t.Errorf("least-work-left %.4f much worse than JSQ %.4f under cv=2 service", wLWL, wJSQ)
	}
	if wJSQ >= wRand {
		t.Errorf("JSQ %.4f not better than random %.4f", wJSQ, wRand)
	}
	// Power of two choices captures most of JSQ's gain over random.
	if wRnd2 >= wRand {
		t.Errorf("rnd(2) %.4f not better than random %.4f", wRnd2, wRand)
	}
}
