package dist

import (
	"crypto/sha256"
	"fmt"
	"math"
)

// Dist is a one-dimensional probability distribution over non-negative
// values (times, rates). Implementations must be immutable after
// construction so they can be shared across goroutines; all randomness
// flows through the caller-supplied RNG.
type Dist interface {
	// Sample draws one variate.
	Sample(r *RNG) float64
	// Mean returns the distribution's expected value. Distributions with
	// an undefined mean (e.g. Pareto with alpha <= 1) return +Inf.
	Mean() float64
	// String names the distribution with its parameters.
	String() string
}

// Exponential is the exponential distribution with the given rate
// (mean = 1/Rate). It models Poisson arrival processes and memoryless
// service times (the M in M/M/1).
type Exponential struct {
	Rate float64
}

// NewExponential returns an exponential distribution with the given rate.
// It panics if rate <= 0.
func NewExponential(rate float64) Exponential {
	if rate <= 0 {
		panic(fmt.Sprintf("dist: exponential rate %v must be positive", rate))
	}
	return Exponential{Rate: rate}
}

func (d Exponential) Sample(r *RNG) float64 { return r.ExpFloat64() / d.Rate }
func (d Exponential) Mean() float64         { return 1 / d.Rate }
func (d Exponential) String() string        { return fmt.Sprintf("Exp(rate=%.4g)", d.Rate) }

// Deterministic always returns Value. It models fixed service demands and
// constant-rate arrival processes (the D in G/D/1).
type Deterministic struct {
	Value float64
}

func (d Deterministic) Sample(*RNG) float64 { return d.Value }
func (d Deterministic) Mean() float64       { return d.Value }
func (d Deterministic) String() string      { return fmt.Sprintf("Det(%.4g)", d.Value) }

// Uniform is the continuous uniform distribution on [Lo, Hi].
type Uniform struct {
	Lo, Hi float64
}

func (d Uniform) Sample(r *RNG) float64 { return d.Lo + (d.Hi-d.Lo)*r.Float64() }
func (d Uniform) Mean() float64         { return (d.Lo + d.Hi) / 2 }
func (d Uniform) String() string        { return fmt.Sprintf("Uniform[%.4g,%.4g]", d.Lo, d.Hi) }

// Pareto is the (type I) Pareto distribution with scale Xm > 0 and shape
// Alpha > 0. The paper evaluates heavy-tailed arrivals with alpha = 0.5,
// whose mean is infinite; use TruncatedPareto to obtain a finite-rate
// arrival process with the same body shape.
type Pareto struct {
	Xm    float64
	Alpha float64
}

func (d Pareto) Sample(r *RNG) float64 {
	return d.Xm / math.Pow(r.Float64Open(), 1/d.Alpha)
}

func (d Pareto) Mean() float64 {
	if d.Alpha <= 1 {
		return math.Inf(1)
	}
	return d.Alpha * d.Xm / (d.Alpha - 1)
}

func (d Pareto) String() string { return fmt.Sprintf("Pareto(xm=%.4g,a=%.4g)", d.Xm, d.Alpha) }

// TruncatedPareto is a Pareto distribution capped at Max: samples above Max
// are clamped. Truncation gives heavy-tailed interarrival processes a finite
// mean so a target arrival rate can be honoured.
type TruncatedPareto struct {
	Xm    float64
	Alpha float64
	Max   float64
}

func (d TruncatedPareto) Sample(r *RNG) float64 {
	v := d.Xm / math.Pow(r.Float64Open(), 1/d.Alpha)
	if v > d.Max {
		return d.Max
	}
	return v
}

// Mean returns the expected value of the clamped variate,
// E[min(X, Max)] for X ~ Pareto(xm, alpha).
func (d TruncatedPareto) Mean() float64 {
	if d.Max <= d.Xm {
		return d.Max
	}
	ratio := d.Xm / d.Max
	// Near alpha=1 the closed form below cancels catastrophically; the
	// log-form limit is both the exact alpha=1 value and the stable
	// approximation in its neighbourhood. (Epsilon math rather than
	// stats.ApproxEqual: stats's internal tests import dist, so dist
	// cannot import stats without a test import cycle.)
	if math.Abs(d.Alpha-1) <= 1e-9 {
		// E[min(X, M)] = xm (1 + ln(M/xm)).
		return d.Xm * (1 + math.Log(d.Max/d.Xm))
	}
	// Integral of the survival function from 0 to Max.
	return d.Xm*d.Alpha/(d.Alpha-1) - d.Max*math.Pow(ratio, d.Alpha)/(d.Alpha-1)
}

func (d TruncatedPareto) String() string {
	return fmt.Sprintf("TruncPareto(xm=%.4g,a=%.4g,max=%.4g)", d.Xm, d.Alpha, d.Max)
}

// ParetoForRate returns a truncated Pareto interarrival distribution with
// shape alpha whose mean equals 1/rate. The cap is fixed at capFactor times
// the mean (a burstiness knob); the scale xm is solved numerically.
func ParetoForRate(rate, alpha, capFactor float64) TruncatedPareto {
	if rate <= 0 || alpha <= 0 || capFactor <= 1 {
		panic("dist: ParetoForRate requires rate>0, alpha>0, capFactor>1")
	}
	target := 1 / rate
	maxV := capFactor * target
	// Mean is monotonically increasing in xm; bisect on xm in (0, maxV).
	lo, hi := 0.0, maxV
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		m := TruncatedPareto{Xm: mid, Alpha: alpha, Max: maxV}.Mean()
		if m < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return TruncatedPareto{Xm: (lo + hi) / 2, Alpha: alpha, Max: maxV}
}

// LogNormal is the log-normal distribution parameterised by the mean Mu and
// standard deviation Sigma of the underlying normal. It models service-time
// distributions with moderate right skew, the common shape for query
// processing times.
type LogNormal struct {
	Mu    float64
	Sigma float64
}

func (d LogNormal) Sample(r *RNG) float64 {
	return math.Exp(d.Mu + d.Sigma*r.NormFloat64())
}

func (d LogNormal) Mean() float64 { return math.Exp(d.Mu + d.Sigma*d.Sigma/2) }

func (d LogNormal) String() string {
	return fmt.Sprintf("LogNormal(mu=%.4g,sigma=%.4g)", d.Mu, d.Sigma)
}

// LogNormalFromMeanCV builds a log-normal with the given mean and
// coefficient of variation (stddev/mean). It panics on non-positive mean or
// negative cv; cv == 0 degenerates to Deterministic-like behaviour with a
// tiny sigma.
func LogNormalFromMeanCV(mean, cv float64) LogNormal {
	if mean <= 0 || cv < 0 {
		panic("dist: LogNormalFromMeanCV requires mean>0, cv>=0")
	}
	if cv <= 1e-9 {
		cv = 1e-9
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return LogNormal{Mu: mu, Sigma: math.Sqrt(sigma2)}
}

// Erlang is the Erlang-k distribution: the sum of K independent exponential
// stages each with the given Rate. Mean = K/Rate. It models low-variance
// service processes (CV = 1/sqrt(K)).
type Erlang struct {
	K    int
	Rate float64
}

func (d Erlang) Sample(r *RNG) float64 {
	sum := 0.0
	for i := 0; i < d.K; i++ {
		sum += r.ExpFloat64()
	}
	return sum / d.Rate
}

func (d Erlang) Mean() float64  { return float64(d.K) / d.Rate }
func (d Erlang) String() string { return fmt.Sprintf("Erlang(k=%d,rate=%.4g)", d.K, d.Rate) }

// Hyperexponential mixes exponential branches: with probability P[i] a
// sample is drawn from an exponential with rate Rates[i]. It models
// high-variance service processes (CV > 1), such as bimodal query mixes.
type Hyperexponential struct {
	P     []float64
	Rates []float64
}

// NewHyperexponential validates and returns a hyperexponential distribution.
func NewHyperexponential(p, rates []float64) Hyperexponential {
	if len(p) != len(rates) || len(p) == 0 {
		panic("dist: hyperexponential branch count mismatch")
	}
	sum := 0.0
	for i, pi := range p {
		if pi < 0 || rates[i] <= 0 {
			panic("dist: hyperexponential requires p>=0 and rates>0")
		}
		sum += pi
	}
	if math.Abs(sum-1) > 1e-9 {
		panic("dist: hyperexponential probabilities must sum to 1")
	}
	return Hyperexponential{P: p, Rates: rates}
}

func (d Hyperexponential) Sample(r *RNG) float64 {
	u := r.Float64()
	acc := 0.0
	for i, p := range d.P {
		acc += p
		if u < acc {
			return r.ExpFloat64() / d.Rates[i]
		}
	}
	return r.ExpFloat64() / d.Rates[len(d.Rates)-1]
}

func (d Hyperexponential) Mean() float64 {
	m := 0.0
	for i, p := range d.P {
		m += p / d.Rates[i]
	}
	return m
}

func (d Hyperexponential) String() string {
	return fmt.Sprintf("HyperExp(%d branches)", len(d.P))
}

// HyperexponentialFromMeanCV builds a two-branch balanced-means
// hyperexponential with the given mean and coefficient of variation
// (cv >= 1). It is the standard moment-matching construction for bursty
// arrival processes: with probability p1 draw from a fast exponential,
// otherwise from a slow one, p_i / r_i balanced so both branches
// contribute the same mean.
func HyperexponentialFromMeanCV(mean, cv float64) Hyperexponential {
	if mean <= 0 || cv < 1 {
		panic(fmt.Sprintf("dist: HyperexponentialFromMeanCV(mean=%v, cv=%v) requires mean>0, cv>=1", mean, cv))
	}
	c2 := cv * cv
	p1 := (1 + math.Sqrt((c2-1)/(c2+1))) / 2
	p2 := 1 - p1
	return NewHyperexponential(
		[]float64{p1, p2},
		[]float64{2 * p1 / mean, 2 * p2 / mean},
	)
}

// Empirical resamples uniformly from observed values. The profiler feeds
// measured service times into the queue simulator through this type.
type Empirical struct {
	values []float64
	mean   float64
	// digest is the first 128 bits of the SHA-256 of values' bit
	// patterns in order: the canonical encoding's stand-in for values.
	digest [16]byte
}

// NewEmpirical copies values into an empirical distribution. It panics on an
// empty sample set.
func NewEmpirical(values []float64) *Empirical {
	if len(values) == 0 {
		panic("dist: empirical distribution needs at least one value")
	}
	cp := make([]float64, len(values))
	copy(cp, values)
	sum := 0.0
	bits := make([]byte, 0, 8*len(cp))
	for _, v := range cp {
		sum += v
		bits = appendFloat(bits, v)
	}
	digest := sha256.Sum256(bits)
	return &Empirical{values: cp, mean: sum / float64(len(cp)), digest: [16]byte(digest[:16])}
}

func (d *Empirical) Sample(r *RNG) float64 { return d.values[r.Intn(len(d.values))] }
func (d *Empirical) Mean() float64         { return d.mean }
func (d *Empirical) String() string        { return fmt.Sprintf("Empirical(n=%d)", len(d.values)) }

// Len returns the number of underlying observations.
func (d *Empirical) Len() int { return len(d.values) }

// Sequence replays a fixed list of values in order, cycling, each
// multiplied by a uniform jitter in [1-Jitter, 1+Jitter]. It scripts
// arrival patterns (e.g. Figure 1's idle-start-then-burst trace) while
// keeping run-to-run variety. Unlike the other distributions, Sequence is
// stateful: create one per simulation run and do not share across
// goroutines.
type Sequence struct {
	values []float64
	jitter float64
	mean   float64
	idx    int
}

// NewSequence builds a cycling sequence with the given relative jitter
// (0 <= jitter < 1).
func NewSequence(values []float64, jitter float64) *Sequence {
	if len(values) == 0 || jitter < 0 || jitter >= 1 {
		panic("dist: NewSequence requires values and jitter in [0,1)")
	}
	cp := append([]float64(nil), values...)
	sum := 0.0
	for _, v := range cp {
		if v < 0 {
			panic("dist: sequence values must be non-negative")
		}
		sum += v
	}
	return &Sequence{values: cp, jitter: jitter, mean: sum / float64(len(cp))}
}

func (d *Sequence) Sample(r *RNG) float64 {
	v := d.values[d.idx%len(d.values)]
	d.idx++
	if d.jitter > 0 {
		v *= 1 - d.jitter + 2*d.jitter*r.Float64()
	}
	return v
}

func (d *Sequence) Mean() float64  { return d.mean }
func (d *Sequence) String() string { return fmt.Sprintf("Sequence(n=%d)", len(d.values)) }

// Scaled multiplies samples of Base by Factor. Speeding a workload up by s
// is Scaled{Base, 1/s} on its service times.
type Scaled struct {
	Base   Dist
	Factor float64
}

func (d Scaled) Sample(r *RNG) float64 { return d.Base.Sample(r) * d.Factor }
func (d Scaled) Mean() float64         { return d.Base.Mean() * d.Factor }
func (d Scaled) String() string        { return fmt.Sprintf("%.4g*%s", d.Factor, d.Base) }
