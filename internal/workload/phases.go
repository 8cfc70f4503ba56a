package workload

import (
	"fmt"
	"math"
)

// minSprintability floors the phase shapes so every point of an execution
// benefits at least slightly from sprinting, keeping the speedup
// normalisation solvable.
const minSprintability = 0.05

// PhaseShape describes how sprint-friendly each part of a query execution
// is, as a function of normalised progress w in [0, 1]. Two curves are
// kept because the bottleneck differs by mechanism family: a frequency
// boost (DVFS, CPU throttling) is insensitive to parallelism structure,
// while core scaling is throttled wherever the program runs few threads
// (Amdahl phases, Section 3.3).
type PhaseShape struct {
	// Desc names the shape for diagnostics.
	Desc string

	freq     func(w float64) float64
	parallel func(w float64) float64
}

// Sprintability returns the relative sprint-friendliness at progress w
// under the given mechanism family. Values are relative weights (mean ~1
// over [0,1]); the absolute speedup scaling happens in SprintCurve.
func (p PhaseShape) Sprintability(w float64, parallelismBased bool) float64 {
	if w < 0 {
		w = 0
	}
	if w > 1 {
		w = 1
	}
	f := p.freq
	if parallelismBased {
		f = p.parallel
	}
	v := f(w)
	if v < minSprintability {
		v = minSprintability
	}
	return v
}

// Shape returns the raw curve for the mechanism family, floored at
// minSprintability.
func (p PhaseShape) Shape(parallelismBased bool) func(float64) float64 {
	return func(w float64) float64 { return p.Sprintability(w, parallelismBased) }
}

func uniform(float64) float64 { return 1 }

// UniformPhases is a flat profile: every part of the execution sprints
// equally well. Marginal and position-conditional speedups coincide.
func UniformPhases() PhaseShape {
	return PhaseShape{Desc: "uniform", freq: uniform, parallel: uniform}
}

// IterativePhases models iteration-structured workloads (K-means rounds,
// BFS frontier levels): sprintability ripples sinusoidally through n
// iterations, dipping to (1-depth) of peak in the synchronisation/shuffle
// portions. depth in [0,1).
func IterativePhases(n int, depth float64) PhaseShape {
	if n < 1 || depth < 0 || depth >= 1 {
		panic(fmt.Sprintf("workload: IterativePhases(n=%d, depth=%v) invalid", n, depth))
	}
	f := func(w float64) float64 {
		return 1 - depth/2 + depth/2*math.Cos(2*math.Pi*float64(n)*w)
	}
	return PhaseShape{Desc: fmt.Sprintf("iterative(n=%d,depth=%.2f)", n, depth), freq: f, parallel: f}
}

// TailLimitedPhases models kernels whose final reduction exposes Amdahl's
// law under core scaling: sprintability is 1 before knee and tailLevel
// after it, but only for parallelism-based mechanisms. Frequency-based
// sprinting sees a uniform profile. knee and tailLevel in (0,1].
func TailLimitedPhases(knee, tailLevel float64) PhaseShape {
	if knee <= 0 || knee >= 1 || tailLevel <= 0 || tailLevel > 1 {
		panic(fmt.Sprintf("workload: TailLimitedPhases(%v,%v) invalid", knee, tailLevel))
	}
	par := func(w float64) float64 {
		if w < knee {
			return 1
		}
		return tailLevel
	}
	return PhaseShape{
		Desc:     fmt.Sprintf("tail-limited(knee=%.2f,tail=%.2f)", knee, tailLevel),
		freq:     uniform,
		parallel: par,
	}
}

// FrontLoadedPhases models workloads with strong early compute phases and
// synchronisation-bound tails (Leukocyte tracking): sprintability decays
// exponentially with progress at the given rate, for every mechanism.
// Sprints triggered by late timeouts land after the sprint-friendly phases
// have passed — the behaviour Section 3.2 calls out.
func FrontLoadedPhases(decay float64) PhaseShape {
	if decay <= 0 {
		panic(fmt.Sprintf("workload: FrontLoadedPhases(%v) requires decay > 0", decay))
	}
	// Normalise to mean 1 over [0,1]: integral of exp(-d w) is (1-e^-d)/d.
	norm := decay / (1 - math.Exp(-decay))
	f := func(w float64) float64 { return norm * math.Exp(-decay*w) }
	return PhaseShape{Desc: fmt.Sprintf("front-loaded(decay=%.2f)", decay), freq: f, parallel: f}
}

// SprintCurve precomputes, for one (workload, mechanism) pair with marginal
// speedup S, how much wall-clock time the remainder of an execution takes
// when sprinted from any progress point. The instantaneous processing-rate
// multiplier is
//
//	r(w) = 1 + (S-1) * k * g(w)
//
// with g the phase shape and k solved so that sprinting a whole execution
// speeds it up by exactly S (the marginal sprint rate the profiler
// measures). Remaining-time integrals are tabulated on a fixed grid.
type SprintCurve struct {
	speedup float64
	// cum[i] = integral from 0 to w_i of dw / r(w), in units of the
	// sustained execution time; cum[gridN] == 1/speedup by construction.
	cum []float64
	// band is how far from the exact inverse a progress point must lie
	// for ProgressAfter to know its comparison without evaluating cumAt;
	// see newCurve.
	band float64
}

// gridN is the tabulation resolution for sprint curves.
const gridN = 512

// NewSprintCurve builds the curve for shape g (strictly positive on [0,1])
// and marginal speedup S >= 1.
func NewSprintCurve(g func(float64) float64, s float64) *SprintCurve {
	if s < 1 || math.IsNaN(s) || math.IsInf(s, 0) {
		panic(fmt.Sprintf("workload: sprint speedup %v must be finite and >= 1", s))
	}
	//lint:ignore floateq exactly 1 selects the degenerate no-op curve; near-1 speedups must still tabulate the real shape
	if s == 1 {
		// Sprinting is a no-op; remaining time equals sustained time.
		return newCurve(s, linspaceCum(func(float64) float64 { return 1 }))
	}
	// Normalise g to mean 1 on the grid, then solve k so the full
	// integral hits 1/s.
	gs := make([]float64, gridN+1)
	mean := 0.0
	for i := 0; i <= gridN; i++ {
		gs[i] = g(float64(i) / gridN)
		if gs[i] <= 0 {
			panic("workload: phase shape must be strictly positive")
		}
	}
	for i := 0; i < gridN; i++ {
		mean += (gs[i] + gs[i+1]) / 2
	}
	mean /= gridN
	for i := range gs {
		gs[i] /= mean
	}
	integralAt := func(k float64) float64 {
		total := 0.0
		prev := 1 / (1 + (s-1)*k*gs[0])
		for i := 1; i <= gridN; i++ {
			cur := 1 / (1 + (s-1)*k*gs[i])
			total += (prev + cur) / 2 / gridN
			prev = cur
		}
		return total
	}
	// integralAt is strictly decreasing in k; bracket then bisect.
	lo, hi := 0.0, 1.0
	for integralAt(hi) > 1/s {
		hi *= 2
		if hi > 1e9 {
			panic("workload: sprint-curve normalisation did not converge")
		}
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if integralAt(mid) > 1/s {
			lo = mid
		} else {
			hi = mid
		}
	}
	k := (lo + hi) / 2
	return newCurve(s, linspaceCum(func(w float64) float64 {
		gi := gs[int(math.Round(w*gridN))]
		return 1 / (1 + (s-1)*k*gi)
	}))
}

// newCurve wraps a tabulated integral and derives its inversion band.
//
// ProgressAfter compares cumAt(w) with a target t. Let L be the exact
// piecewise-linear interpolant of cum: it rises by at least
// slope = gridN * dmin per unit of progress, dmin being the smallest
// cell increment (computed to within a relative 2^-53). cumAt evaluates
// L with four roundings of values no larger than cum[gridN] <= 1, so it
// is off by less than 2^-51; inverse finds the exact w* with L(w*) = t
// to within 2^-53, and w* -/+ band rounds by at most 2^-54. So a
// midpoint below w* - band, with band = 2^-49/slope + 2^-52, lies more
// than 2^-51/slope below w* and has cumAt < t; one above w* + band has
// cumAt >= t. A non-positive dmin (an underflowed shape) makes the band
// infinite, so every comparison evaluates cumAt.
func newCurve(speedup float64, cum []float64) *SprintCurve {
	dmin := math.Inf(1)
	for i := 0; i < gridN; i++ {
		dmin = min(dmin, cum[i+1]-cum[i])
	}
	band := math.Inf(1)
	if dmin > 0 {
		band = 0x1p-49/(gridN*dmin) + 0x1p-52
	}
	return &SprintCurve{speedup: speedup, cum: cum, band: band}
}

// linspaceCum tabulates the cumulative trapezoid integral of f over [0,1].
func linspaceCum(f func(float64) float64) []float64 {
	cum := make([]float64, gridN+1)
	prev := f(0)
	for i := 1; i <= gridN; i++ {
		cur := f(float64(i) / gridN)
		cum[i] = cum[i-1] + (prev+cur)/2/gridN
		prev = cur
	}
	return cum
}

// MarginalSpeedup returns S, the whole-execution speedup.
func (c *SprintCurve) MarginalSpeedup() float64 { return c.speedup }

// cumAt linearly interpolates the tabulated integral at progress w.
func (c *SprintCurve) cumAt(w float64) float64 {
	if w <= 0 {
		return 0
	}
	if w >= 1 {
		return c.cum[gridN]
	}
	pos := w * gridN
	i := int(pos)
	frac := pos - float64(i)
	return c.cum[i]*(1-frac) + c.cum[i+1]*frac
}

// SprintedRemaining returns the wall-clock time to finish an execution
// whose total sustained duration is total, sprinting from progress tau
// (fraction of work complete) to the end.
func (c *SprintCurve) SprintedRemaining(total, tau float64) float64 {
	return total * (c.cumAt(1) - c.cumAt(tau))
}

// EffectiveSpeedupFrom returns the average speedup over the remainder of
// an execution when the sprint starts at progress tau: remaining sustained
// time divided by remaining sprinted time. At tau = 0 this equals the
// marginal speedup; for phase-limited workloads it shrinks as tau grows.
func (c *SprintCurve) EffectiveSpeedupFrom(tau float64) float64 {
	if tau >= 1 {
		return 1
	}
	rem := c.cumAt(1) - c.cumAt(tau)
	if rem <= 0 {
		return 1
	}
	return (1 - tau) / rem
}

// ProgressAfter returns the progress reached after sprinting for dt
// wall-clock seconds from progress tau in an execution whose sustained
// duration is total. It inverts the cumulative integral by bisection and
// caps at 1.
//
// The bisection is bit for bit the plain 60-step one over cumAt, done
// cheaply: a midpoint farther than the curve's band from the exact
// inverse already knows which way cumAt compares (see newCurve), so only
// midpoints near the answer evaluate it, and the loop ends once (lo, hi)
// stops changing, after which further steps would repeat it.
func (c *SprintCurve) ProgressAfter(total, tau, dt float64) float64 {
	if total <= 0 {
		return 1
	}
	target := c.cumAt(tau) + dt/total
	if target >= c.cumAt(1) {
		return 1
	}
	lo, hi := tau, 1.0
	// Midpoints below `below` compare less than target, above `above`
	// not. With tau outside [0, 1] or a negative or NaN target, cumAt is
	// not the strictly rising interpolant the band assumes, so every
	// midpoint evaluates it.
	below, above := math.Inf(-1), math.Inf(1)
	if tau >= 0 && tau <= 1 && target >= 0 {
		w := c.inverse(target)
		below, above = w-c.band, w+c.band
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		var less bool
		switch {
		case mid < below:
			less = true
		case mid > above:
			less = false
		default:
			less = c.cumAt(mid) < target
		}
		if less {
			if math.Float64bits(mid) == math.Float64bits(lo) {
				break
			}
			lo = mid
		} else {
			if math.Float64bits(mid) == math.Float64bits(hi) {
				break
			}
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// inverse returns the progress at which the linear interpolant of cum
// reaches target, for 0 <= target < cum[gridN]. The cell holding it is
// found by walking from where a straight-line cum would put it: at most
// one cell for a uniform shape, under 50 for the catalog's others.
func (c *SprintCurve) inverse(target float64) float64 {
	j := min(int(target/c.cum[gridN]*gridN), gridN-1)
	for j > 0 && c.cum[j] > target {
		j--
	}
	for c.cum[j+1] <= target {
		j++
	}
	frac := (target - c.cum[j]) / (c.cum[j+1] - c.cum[j])
	return (float64(j) + frac) / gridN
}
