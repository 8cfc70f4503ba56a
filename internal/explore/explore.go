// Package explore implements the paper's policy-space exploration
// (Section 4.2): simulated annealing over sprinting-policy settings,
// guided by a performance model's expected response time. The algorithm
// is the paper's: random restart-free annealing with neighbour proposals
// drawn from a narrow window, acceptance probability
//
//	a = 1                     if RT_old - RT_new > 0
//	a = exp((RT_old-RT_new)/Z) otherwise                (Equation 5)
//
// and Z starting at 1 and decaying 10% per 100 settings explored.
//
// Minimize walks one candidate at a time. With Options.Speculate it
// scores ahead on a second core: while it scores one candidate, a second
// goroutine scores the candidate it will propose next if that one is
// rejected, so a rejection costs no call of its own. Its outputs stay
// the serial walk's, bit for bit. MinimizeBatchCtx scores cohorts of
// proposals per objective call instead, and walks a trajectory of its
// own.
package explore

import (
	"context"
	"fmt"
	"math"

	"mdsprint/internal/dist"
)

// Objective maps a candidate point to its expected response time (lower
// is better). Implementations typically call a core.Model.
type Objective func(point []float64) float64

// Space bounds the search: one entry per dimension.
type Space struct {
	// Lo and Hi are inclusive bounds per dimension.
	Lo, Hi []float64
	// NeighborRange is the half-width of the neighbour proposal window
	// per dimension. The paper samples timeouts from [t-100, t+100].
	NeighborRange []float64
}

func (s Space) validate() error {
	if len(s.Lo) == 0 || len(s.Lo) != len(s.Hi) || len(s.Lo) != len(s.NeighborRange) {
		return fmt.Errorf("explore: space dimensions inconsistent")
	}
	for d := range s.Lo {
		if s.Hi[d] < s.Lo[d] {
			return fmt.Errorf("explore: dimension %d has hi < lo", d)
		}
		if s.NeighborRange[d] <= 0 {
			return fmt.Errorf("explore: dimension %d needs a positive neighbour range", d)
		}
	}
	return nil
}

// Options tunes the annealing run.
type Options struct {
	// MaxIter is the number of neighbour proposals (default 300).
	MaxIter int
	// InitialZ and ZDecayPer100 implement Equation 5's schedule
	// (defaults 1.0 and 0.9).
	InitialZ     float64
	ZDecayPer100 float64
	// Seed drives proposals.
	Seed uint64
	// Speculate lets the serial search score, on a second goroutine,
	// the candidate it will propose next if the one it is scoring is
	// rejected: the next proposal from the incumbent that does not clamp
	// back onto it, drawn from a copy of the RNG after the acceptance
	// draw. A rejection reads that value instead of calling the
	// objective again; an acceptance discards it. The initial point and
	// the first proposal are always scored together. The accepted
	// trajectory, best point, RT and trace stay the serial search's, bit
	// for bit, when the objective is safe for concurrent use and its
	// value depends on its point alone. It pays only where one call
	// costs far more than a goroutine handoff and a core would
	// otherwise sit idle; the batch search ignores it.
	Speculate bool
}

func (o Options) withDefaults() Options {
	if o.MaxIter == 0 {
		o.MaxIter = 300
	}
	if o.InitialZ <= 0 {
		o.InitialZ = 1
	}
	if o.ZDecayPer100 <= 0 {
		o.ZDecayPer100 = 0.9
	}
	return o
}

// Step records one accepted state for diagnostics.
type Step struct {
	Point []float64
	RT    float64
}

// Result is the search outcome.
type Result struct {
	// Best point found and its expected response time.
	Point []float64
	RT    float64
	// Evaluations counts objective calls. Speculative counts the subset
	// scored ahead of a decision and then discarded: a batched search's
	// cohort members past an acceptance, a speculating serial search's
	// rejection branches that an acceptance made moot (zero without
	// Options.Speculate). The consumed work Evaluations - Speculative is
	// identical for every cohort size, and with speculation on or off.
	Evaluations int
	Speculative int
	// Trace holds the accepted-state history.
	Trace []Step
}

// Minimize anneals over the space, returning the best point seen. The
// objective is treated as a black box; noisy objectives are fine (the
// returned RT is the best observed value).
func Minimize(obj Objective, space Space, opts Options) (Result, error) {
	return MinimizeCtx(context.Background(), func(p []float64) (float64, error) { return obj(p), nil }, space, opts)
}

// MinimizeCtx is Minimize for an objective that can fail. A failed call
// scores its point +Inf and the search runs on; the first failure among
// the values the search consumed, in the order it consumed them, is
// returned with the finished result. With Options.Speculate, a
// speculative call's failure or panic counts only if the search consumes
// its value: a panic is then raised again on the caller's goroutine,
// where the serial search would have raised it, and is dropped
// otherwise. ctx bounds the speculation: once it is done no speculative
// call starts, and the search returns only after its speculative call
// has. The objective sees ctx only through its own closure.
func MinimizeCtx(ctx context.Context, obj func(point []float64) (float64, error), space Space, opts Options) (Result, error) {
	if err := space.validate(); err != nil {
		return Result{}, err
	}
	o := opts.withDefaults()
	r := dist.NewRNG(o.Seed)
	dims := len(space.Lo)
	var s *speculator // nil: the search never scores ahead
	if o.Speculate {
		s = &speculator{obj: obj}
		defer s.stop()
	}
	var firstErr error
	// read is how the search reads a score: a failure is +Inf.
	read := func(rt float64, err error) float64 {
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return math.Inf(1)
		}
		return rt
	}

	// Step 1: random initial setting. The first proposal does not depend
	// on its RT, so the two are scored together.
	cur := make([]float64, dims)
	for d := range cur {
		cur[d] = space.Lo[d] + r.Float64()*(space.Hi[d]-space.Lo[d])
	}
	s.ahead(ctx, *r, cur, 0, o.MaxIter, space)
	curRT := read(obj(cur))
	res := Result{
		Point:       append([]float64(nil), cur...),
		RT:          curRT,
		Evaluations: 1,
		Trace:       []Step{{Point: append([]float64(nil), cur...), RT: curRT}},
	}
	z := o.InitialZ
	for i := 0; i < o.MaxIter; i++ {
		// Step 2: neighbour from the narrow window, one dimension
		// perturbed per proposal (all dimensions for 1-D spaces).
		cand, moved := propose(r, cur, space)
		if !moved {
			// The proposal clamped back onto the incumbent: there is no
			// move to score, and Equation 5 on a zero delta would
			// re-accept the incumbent with probability one — burning an
			// evaluation and an acceptance draw and padding the trace
			// with phantom steps whenever the search sits on a bound.
			// Reject it outright; the schedule still advances.
			if (i+1)%100 == 0 {
				z *= o.ZDecayPer100
			}
			continue
		}
		var candRT float64
		if s.holds(i) {
			candRT = read(s.take())
		} else {
			if s != nil {
				// Score the rejection branch's next candidate meanwhile:
				// a rejection has taken the acceptance draw.
				g := *r
				g.Float64()
				s.ahead(ctx, g, cur, i+1, o.MaxIter, space)
			}
			candRT = read(obj(cand))
			res.Evaluations++
		}
		// Step 3: accept improvements; accept regressions with
		// probability exp((RT_old - RT_new)/Z).
		accept := candRT < curRT
		if !accept {
			a := math.Exp((curRT - candRT) / z)
			accept = r.Float64() < a
		}
		if accept {
			s.moot()
			cur, curRT = cand, candRT
			res.Trace = append(res.Trace, Step{Point: append([]float64(nil), cand...), RT: candRT})
			if candRT < res.RT {
				res.RT = candRT
				res.Point = append([]float64(nil), cand...)
			}
		}
		// Z decays 10% per 100 settings explored.
		if (i+1)%100 == 0 {
			z *= o.ZDecayPer100
		}
	}
	if s != nil {
		res.Evaluations += s.calls
		res.Speculative = s.calls - s.used
	}
	return res, firstErr
}

// propose draws one neighbour of cur from r and reports whether it
// moved: a proposal that clamps back onto cur has no move to score.
func propose(r *dist.RNG, cur []float64, space Space) ([]float64, bool) {
	cand := append([]float64(nil), cur...)
	d := 0
	if len(cur) > 1 {
		d = r.Intn(len(cur))
	}
	cand[d] += (r.Float64()*2 - 1) * space.NeighborRange[d]
	cand[d] = clamp(cand[d], space.Lo[d], space.Hi[d])
	return cand, math.Float64bits(cand[d]) != math.Float64bits(cur[d])
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// MinimizeTimeout is the paper's MINRT search (Equation 4): anneal the
// timeout alone over TimeoutSpace(lo, hi).
func MinimizeTimeout(obj func(timeout float64) float64, lo, hi float64, opts Options) (Result, error) {
	return Minimize(func(p []float64) float64 { return obj(p[0]) }, TimeoutSpace(lo, hi), opts)
}

// TimeoutSpace is MINRT's one-dimensional space: the timeout over
// [lo, hi] with the +-100 s neighbour window. MinimizeCtx over it scores
// a point's timeout at point[0].
func TimeoutSpace(lo, hi float64) Space {
	return Space{Lo: []float64{lo}, Hi: []float64{hi}, NeighborRange: []float64{100}}
}
