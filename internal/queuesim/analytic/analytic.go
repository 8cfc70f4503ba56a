// Package analytic answers queue-simulator queries with queueing
// theory's closed forms instead of simulation, when a form applies.
// These are the formulas the simulator's own validation suite
// (queuesim's analytic tests) checks against, promoted into a reusable
// surrogate so the staged estimator (internal/tier) can serve eligible
// predictions at closed-form cost:
//
//   - M/M/1 and M/M/k via Erlang-C (exponential arrivals and service,
//     FIFO or non-preemptive LIFO, any slot count);
//   - M/G/1 via Pollaczek–Khinchine (general service with a finite
//     second moment, single slot, FIFO/LIFO);
//   - M/G/1-PS via the processor-sharing insensitivity result (any
//     service distribution, mean only);
//   - M/M/1-SRPT via the Schrage–Miller transform-free form (numeric
//     quadrature — cheap next to a simulation, exact in the limit).
//
// Everything else — sprinting enabled, non-Poisson arrivals, multi-queue
// dispatch, SERPT's noisy predictions, service distributions without a
// usable second moment — is out of applicability and reported as a
// typed error, never approximated. MeanRT answers are exact properties
// of the queueing model; a simulation of the same Params converges to
// them as replications grow, so the two disagree only by the
// simulation's own sampling noise.
package analytic

import (
	"errors"
	"math"

	"mdsprint/internal/dist"
	"mdsprint/internal/queuesim"
)

// MeanRT's rejections. Static values so the estimator's rejection
// path stays allocation-free; errors.Is works against each.
var (
	// ErrSprinting: sprint timeouts/budgets have no closed form — the
	// whole point of the simulator.
	ErrSprinting = errors.New("analytic: sprinting enabled, no closed form")
	// ErrArrival: closed forms need Poisson (exponential) arrivals.
	ErrArrival = errors.New("analytic: non-exponential arrivals")
	// ErrMultiQueue: per-server queues with a dispatcher are not a
	// single M/G/k station.
	ErrMultiQueue = errors.New("analytic: multi-queue dispatch has no closed form")
	// ErrDiscipline: SERPT (noisy predictions) has no closed form.
	ErrDiscipline = errors.New("analytic: discipline has no closed form")
	// ErrService: the service distribution lacks the moment the form
	// needs (no second moment, or an infinite one).
	ErrService = errors.New("analytic: service distribution lacks a usable moment")
	// ErrMultiSlot: multiple slots need exponential service (Erlang-C);
	// M/G/k has no exact mean-wait formula.
	ErrMultiSlot = errors.New("analytic: multiple slots need exponential service")
	// ErrUnstable: offered load at or above capacity — no steady state.
	ErrUnstable = errors.New("analytic: utilization at or above 1")
	// ErrInvalid: parameters the simulator itself would reject.
	ErrInvalid = errors.New("analytic: invalid parameters")
)

// ErlangC returns the M/M/k probability of waiting, C(k, a), with
// offered load a = lambda/mu. It requires a < k (stability).
func ErlangC(k int, a float64) float64 {
	// Sum a^n/n! iteratively to avoid overflow for moderate k.
	term := 1.0 // a^0/0!
	sum := term
	for n := 1; n < k; n++ {
		term *= a / float64(n)
		sum += term
	}
	top := term * a / float64(k) / (1 - a/float64(k)) // a^k/k! * 1/(1-rho)
	return top / (sum + top)
}

// MMKWait returns the analytic mean waiting time Wq and mean response
// time W for an M/M/k queue with arrival rate lambda and per-server
// service rate mu.
func MMKWait(lambda, mu float64, k int) (wq, w float64) {
	a := lambda / mu
	wq = ErlangC(k, a) / (float64(k)*mu - lambda)
	return wq, wq + 1/mu
}

// MM1MeanRT returns the M/M/1 mean response time 1/(mu - lambda).
func MM1MeanRT(lambda, mu float64) float64 { return 1 / (mu - lambda) }

// MG1MeanRT returns the M/G/1-FIFO mean response time by
// Pollaczek–Khinchine: E[T] = E[S] + lambda*E[S^2] / (2*(1-rho)).
func MG1MeanRT(lambda, meanS, m2S float64) float64 {
	rho := lambda * meanS
	return meanS + lambda*m2S/(2*(1-rho))
}

// PSMeanRT returns the M/G/1-PS mean response time E[S]/(1-rho) — the
// insensitivity result: processor sharing's mean depends on the service
// distribution only through its mean.
func PSMeanRT(lambda, meanS float64) float64 {
	return meanS / (1 - lambda*meanS)
}

// SRPTMM1MeanRT numerically evaluates the Schrage–Miller transform-free
// closed form for the M/G/1-SRPT mean response time with exponential
// service at rate mu:
//
//	E[T(x)] = lambda*(m2(x) + x^2*(1-F(x))) / (2*(1-rho(x))^2)
//	        + integral_0^x dt / (1 - rho(t))
//	E[T]    = integral_0^inf E[T(x)] f(x) dx
//
// with rho(x) = lambda*m1(x), m1(x) = int_0^x t f(t) dt and
// m2(x) = int_0^x t^2 f(t) dt, which for f = mu*exp(-mu t) have the
// closed antiderivatives used below. The outer integral and the inner
// waiting integral are evaluated on one shared trapezoidal grid.
func SRPTMM1MeanRT(lambda, mu float64) float64 {
	upper := 40.0 / mu // exp(-40) tail: negligible mass
	const n = 40000
	h := upper / n
	rho := func(x float64) float64 {
		m1 := (1 - math.Exp(-mu*x)*(1+mu*x)) / mu
		return lambda * m1
	}
	// Cumulative waiting integral W(x) = int_0^x dt/(1-rho(t)).
	wait := 0.0
	mean := 0.0
	prevInv := 1 / (1 - rho(0))
	for i := 1; i <= n; i++ {
		x := float64(i) * h
		inv := 1 / (1 - rho(x))
		wait += 0.5 * (prevInv + inv) * h
		prevInv = inv
		e := math.Exp(-mu * x)
		m2 := (2 - e*(mu*mu*x*x+2*mu*x+2)) / (mu * mu)
		res := lambda * (m2 + x*x*e) / (2 * (1 - rho(x)) * (1 - rho(x)))
		f := mu * e
		mean += (res + wait) * f * h
	}
	return mean
}

// expRate reports whether the service distribution is a catalog
// exponential, and its rate.
func expRate(d dist.Dist) (float64, bool) {
	e, ok := d.(dist.Exponential)
	if !ok {
		return 0, false
	}
	return e.Rate, true
}

// MeanRT answers p's mean response time from the applicable closed
// form, or reports why none applies. The answer is the exact queueing-
// model mean the simulator converges to; the success path performs no
// heap allocations.
func MeanRT(p queuesim.Params) (float64, error) {
	c := p.Canonical()
	if c.ArrivalRate <= 0 || math.IsNaN(c.ArrivalRate) || c.Service == nil || c.Slots <= 0 {
		return 0, ErrInvalid
	}
	if c.Sprinting() {
		return 0, ErrSprinting
	}
	if c.Arrival != nil {
		if _, ok := expRate(c.Arrival); !ok {
			return 0, ErrArrival
		}
	} else if c.ArrivalKind != dist.KindExponential {
		return 0, ErrArrival
	}
	if c.Servers > 1 {
		return 0, ErrMultiQueue
	}
	lambda := c.ArrivalRate
	meanS := c.Service.Mean()
	if !(meanS > 0) || math.IsInf(meanS, 1) {
		return 0, ErrService
	}

	switch c.Discipline.Kind {
	case queuesim.DiscPS:
		// Insensitivity: mean only, any service distribution, one
		// shared processor (the simulator's PS requires Slots-wide
		// sharing of a single server; keep to the validated shape).
		if c.Slots != 1 {
			return 0, ErrMultiSlot
		}
		if lambda*meanS >= 1 {
			return 0, ErrUnstable
		}
		return PSMeanRT(lambda, meanS), nil

	case queuesim.DiscSRPT:
		if c.Slots != 1 {
			return 0, ErrMultiSlot
		}
		mu, ok := expRate(c.Service)
		if !ok {
			return 0, ErrService
		}
		if lambda >= mu {
			return 0, ErrUnstable
		}
		return SRPTMM1MeanRT(lambda, mu), nil

	case queuesim.DiscFIFO, queuesim.DiscLIFO:
		// Non-preemptive LIFO shares FIFO's mean wait: any
		// work-conserving order-of-service rule that ignores service
		// times leaves the queue-length process (M/M/k) or the P-K mean
		// wait (M/G/1) unchanged.
		if mu, ok := expRate(c.Service); ok {
			if lambda >= float64(c.Slots)*mu {
				return 0, ErrUnstable
			}
			_, w := MMKWait(lambda, mu, c.Slots)
			return w, nil
		}
		if c.Slots != 1 {
			return 0, ErrMultiSlot
		}
		m2, ok := dist.SecondMoment(c.Service)
		if !ok {
			return 0, ErrService
		}
		if math.IsInf(m2, 1) || math.IsNaN(m2) {
			return 0, ErrService
		}
		if lambda*meanS >= 1 {
			return 0, ErrUnstable
		}
		return MG1MeanRT(lambda, meanS, m2), nil

	default: // SERPT and any future discipline
		return 0, ErrDiscipline
	}
}
