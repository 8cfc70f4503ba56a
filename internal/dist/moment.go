package dist

import "math"

// This file gives the catalog distributions their second moment E[X^2],
// the ingredient the Pollaczek–Khinchine M/G/1 closed form needs on top
// of the mean (internal/queuesim/analytic). Distributions whose second
// moment is undefined or infinite (Pareto with alpha <= 2) report +Inf;
// distributions with no tractable form simply don't implement the
// method and SecondMoment reports ok=false, which analytic surrogates
// treat as "out of applicability" rather than guessing.

// secondMomenter is implemented by distributions with a known E[X^2].
type secondMomenter interface {
	SecondMoment() float64
}

// SecondMoment returns E[X^2] for d when a closed or precomputed form
// exists. The boolean reports whether the value is trustworthy; +Inf
// with ok=true means the moment genuinely diverges (heavy tails), which
// callers must treat as unusable for mean-wait formulas.
func SecondMoment(d Dist) (float64, bool) {
	if v, ok := d.(Scaled); ok {
		m2, ok := SecondMoment(v.Base)
		return v.Factor * v.Factor * m2, ok
	}
	if sm, ok := d.(secondMomenter); ok {
		return sm.SecondMoment(), true
	}
	return 0, false
}

// SecondMoment returns E[X^2] = 2/rate^2.
func (d Exponential) SecondMoment() float64 { return 2 / (d.Rate * d.Rate) }

// SecondMoment returns Value^2 (a point mass has no variance).
func (d Deterministic) SecondMoment() float64 { return d.Value * d.Value }

// SecondMoment returns (Lo^2 + Lo*Hi + Hi^2)/3.
func (d Uniform) SecondMoment() float64 {
	return (d.Lo*d.Lo + d.Lo*d.Hi + d.Hi*d.Hi) / 3
}

// SecondMoment returns K(K+1)/rate^2, the Erlang-k second moment.
func (d Erlang) SecondMoment() float64 {
	k := float64(d.K)
	return k * (k + 1) / (d.Rate * d.Rate)
}

// SecondMoment returns exp(2*Mu + 2*Sigma^2).
func (d LogNormal) SecondMoment() float64 {
	return math.Exp(2*d.Mu + 2*d.Sigma*d.Sigma)
}

// SecondMoment returns sum_i P[i] * 2/Rates[i]^2 (each branch is
// exponential).
func (d Hyperexponential) SecondMoment() float64 {
	m2 := 0.0
	for i, p := range d.P {
		m2 += p * 2 / (d.Rates[i] * d.Rates[i])
	}
	return m2
}

// SecondMoment returns alpha*xm^2/(alpha-2), or +Inf when alpha <= 2
// (the tail is too heavy for a finite second moment).
func (d Pareto) SecondMoment() float64 {
	if d.Alpha <= 2 {
		return math.Inf(1)
	}
	return d.Alpha * d.Xm * d.Xm / (d.Alpha - 2)
}

// SecondMoment returns E[min(X, Max)^2] for X ~ Pareto(xm, alpha):
// truncation always keeps the moment finite. Derived by integrating the
// survival function, E[Y^2] = 2 * int_0^M t * P(X > t) dt with
// P(X > t) = 1 for t < xm and (xm/t)^alpha above.
func (d TruncatedPareto) SecondMoment() float64 {
	if d.Max <= d.Xm {
		return d.Max * d.Max
	}
	xm2 := d.Xm * d.Xm
	// Near alpha=2 the closed form cancels; the log-form limit is the
	// exact alpha=2 value and the stable neighbourhood approximation
	// (same epsilon treatment as TruncatedPareto.Mean).
	if math.Abs(d.Alpha-2) <= 1e-9 {
		return xm2 * (1 + 2*math.Log(d.Max/d.Xm))
	}
	// xm^2 + 2*xm^alpha * [t^(2-alpha)/(2-alpha)] from xm to Max.
	pow := math.Pow(d.Xm/d.Max, d.Alpha)
	return xm2 + 2*(d.Max*d.Max*pow-xm2)/(2-d.Alpha)
}

// SecondMoment returns the mean of squares of the underlying sample —
// exact for the resampling process the simulator draws from.
func (d *Empirical) SecondMoment() float64 {
	sum := 0.0
	for _, v := range d.values {
		sum += v * v
	}
	return sum / float64(len(d.values))
}

// SecondMoment returns the cycle's mean of squares scaled by the
// jitter's own second moment: samples are v*U with U ~
// Uniform[1-Jitter, 1+Jitter], so E[(vU)^2] = v^2 * (1 + Jitter^2/3).
func (d *Sequence) SecondMoment() float64 {
	sum := 0.0
	for _, v := range d.values {
		sum += v * v
	}
	return sum / float64(len(d.values)) * (1 + d.jitter*d.jitter/3)
}
