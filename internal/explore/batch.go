package explore

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"mdsprint/internal/dist"
	"mdsprint/internal/obs"
)

// BatchObjective scores a cohort of candidate points in one call and
// returns their expected response times in order. Implementations
// typically hand the cohort to sweep.Engine.MeanRTs, which shards the
// evaluations across workers and memoizes repeats.
type BatchObjective func(points [][]float64) ([]float64, error)

// BatchOptions tunes the batched annealing run.
type BatchOptions struct {
	Options
	// Cohort is how many neighbour proposals are constructed and scored
	// per objective call (default runtime.GOMAXPROCS(0): one proposal
	// per CPU the objective's sweep can run at once). The cohort is
	// speculative: every proposal is built from the current incumbent,
	// and an acceptance invalidates the rest of its cohort, which is
	// re-proposed from the new incumbent. The search trajectory is
	// therefore bit-for-bit identical for every cohort size; only the
	// amount of discarded speculative work varies (Result.Speculative,
	// and with it Result.Evaluations). A caller that reports
	// Evaluations as a result sets Cohort, so the count does not depend
	// on the host.
	Cohort int
}

func (o BatchOptions) withDefaults() BatchOptions {
	o.Options = o.Options.withDefaults()
	if o.Cohort <= 0 {
		o.Cohort = runtime.GOMAXPROCS(0)
	}
	return o
}

// proposal is one pre-drawn neighbour move: perturb dimension d by
// (2u-1) * NeighborRange[d]. Draws are fixed per iteration index, so a
// candidate can be reconstructed from any incumbent without touching the
// RNG again.
type proposal struct {
	d int
	u float64
}

// MinimizeBatchCtx anneals like Minimize but scores proposals in cohorts
// through a batch objective. Determinism contract: for a fixed seed the
// accepted trajectory, best point and trace are identical for every
// Cohort, because proposal draws are indexed by iteration (not by
// evaluation order) and acceptance draws are consumed only when a
// processed, evaluated proposal fails to improve — both invariant under
// batching.
//
// MinimizeBatchCtx intentionally uses two split RNG streams (proposals
// and acceptances) where the serial Minimize interleaves one, so the two
// searches walk different trajectories for the same seed; equivalence
// holds within MinimizeBatchCtx across cohort sizes.
//
// The context is checked before every objective call (the cohort
// boundary), so a deadline or cancel stops the search between cohorts
// with ctx's error; a nil ctx never cancels. Cancellation never perturbs
// determinism — a run that completes under a context walks the same
// trajectory as one without.
func MinimizeBatchCtx(ctx context.Context, obj BatchObjective, space Space, opts BatchOptions) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sp := obs.StartSpanCtx(ctx, "explore.minimize")
	res, err := minimizeBatch(obs.ContextWithSpan(ctx, sp), obj, space, opts)
	sp.SetInt("evaluations", int64(res.Evaluations))
	sp.SetFloat("best_rt", res.RT)
	sp.SetError(err)
	sp.End()
	return res, err
}

// minimizeBatch is MinimizeBatchCtx's body, separated so the wrapper can
// bracket the whole search in one span.
func minimizeBatch(ctx context.Context, obj BatchObjective, space Space, opts BatchOptions) (Result, error) {
	if err := space.validate(); err != nil {
		return Result{}, err
	}
	o := opts.withDefaults()
	root := dist.NewRNG(o.Seed)
	propose := root.Split()
	accept := root.Split()
	dims := len(space.Lo)

	// Random initial setting, scored as a one-point cohort.
	cur := make([]float64, dims)
	for d := range cur {
		cur[d] = space.Lo[d] + propose.Float64()*(space.Hi[d]-space.Lo[d])
	}
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("explore: %w", err)
	}
	vals, err := callBatch(obj, [][]float64{cur})
	if err != nil {
		return Result{}, err
	}
	curRT := vals[0]
	res := Result{
		Point:       append([]float64(nil), cur...),
		RT:          curRT,
		Evaluations: 1,
		Trace:       []Step{{Point: append([]float64(nil), cur...), RT: curRT}},
	}

	// draws[i] is iteration i's proposal, generated lazily in iteration
	// order so the propose stream's state never depends on cohort size.
	draws := make([]proposal, 0, o.MaxIter)
	ensureDraws := func(n int) {
		for len(draws) < n {
			p := proposal{}
			if dims > 1 {
				p.d = propose.Intn(dims)
			}
			p.u = propose.Float64()
			draws = append(draws, p)
		}
	}
	candidateAt := func(i int) []float64 {
		p := draws[i]
		cand := append([]float64(nil), cur...)
		cand[p.d] += (p.u*2 - 1) * space.NeighborRange[p.d]
		cand[p.d] = clamp(cand[p.d], space.Lo[p.d], space.Hi[p.d])
		return cand
	}

	z := o.InitialZ
	// zTick advances Equation 5's schedule after iteration i.
	zTick := func(i int) {
		if (i+1)%100 == 0 {
			z *= o.ZDecayPer100
		}
	}

	for i := 0; i < o.MaxIter; {
		c := o.Cohort
		if rem := o.MaxIter - i; c > rem {
			c = rem
		}
		ensureDraws(i + c)
		// Build the cohort from the incumbent. Proposals that clamp
		// back onto the incumbent are rejected without an evaluation or
		// an acceptance draw (see Minimize); they stay in the scan so
		// the schedule advances identically.
		cands := make([][]float64, c)
		skip := make([]bool, c)
		var pts [][]float64
		for j := 0; j < c; j++ {
			cands[j] = candidateAt(i + j)
			d := draws[i+j].d
			skip[j] = math.Float64bits(cands[j][d]) == math.Float64bits(cur[d])
			if !skip[j] {
				pts = append(pts, cands[j])
			}
		}
		var rts []float64
		if len(pts) > 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, fmt.Errorf("explore: %w", err)
			}
			if rts, err = callBatch(obj, pts); err != nil {
				return Result{}, err
			}
			res.Evaluations += len(pts)
		}
		// Scan the cohort in iteration order, applying Equation 5.
		pos := 0
		accepted := false
		for j := 0; j < c; j++ {
			if skip[j] {
				zTick(i + j)
				continue
			}
			candRT := rts[pos]
			pos++
			ok := candRT < curRT
			if !ok {
				a := math.Exp((curRT - candRT) / z)
				ok = accept.Float64() < a
			}
			if ok {
				cur, curRT = cands[j], candRT
				res.Trace = append(res.Trace, Step{Point: append([]float64(nil), cands[j]...), RT: candRT})
				if candRT < res.RT {
					res.RT = candRT
					res.Point = append([]float64(nil), cands[j]...)
				}
				zTick(i + j)
				// The rest of the cohort was proposed from the old
				// incumbent; its evaluations are discarded speculation
				// and those iterations re-run from the new incumbent.
				res.Speculative += len(rts) - pos
				i += j + 1
				accepted = true
				break
			}
			zTick(i + j)
		}
		if !accepted {
			i += c
		}
	}
	return res, nil
}

// callBatch invokes the objective and validates its shape.
func callBatch(obj BatchObjective, pts [][]float64) ([]float64, error) {
	vals, err := obj(pts)
	if err != nil {
		return nil, err
	}
	if len(vals) != len(pts) {
		return nil, fmt.Errorf("explore: batch objective returned %d values for %d points", len(vals), len(pts))
	}
	return vals, nil
}

// MinimizeTimeoutBatchCtx is MinimizeTimeout with a batch objective,
// honoring cancellation (see MinimizeBatchCtx): anneal the timeout alone
// over [lo, hi] with the +-100 s neighbour window, scoring cohorts of
// candidate timeouts per call.
func MinimizeTimeoutBatchCtx(ctx context.Context, obj func(timeouts []float64) ([]float64, error), lo, hi float64, opts BatchOptions) (Result, error) {
	space := Space{
		Lo:            []float64{lo},
		Hi:            []float64{hi},
		NeighborRange: []float64{100},
	}
	return MinimizeBatchCtx(ctx, func(pts [][]float64) ([]float64, error) {
		ts := make([]float64, len(pts))
		for i, p := range pts {
			ts[i] = p[0]
		}
		return obj(ts)
	}, space, opts)
}
