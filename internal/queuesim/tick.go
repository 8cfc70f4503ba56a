package queuesim

import (
	"math"

	"mdsprint/internal/dist"
	"mdsprint/internal/sprint"
)

// RunTick is a tick-stepped reference implementation of the same queue
// semantics as Run, in the style of the paper's Algorithm 1 (which
// advances a fine-resolution clock one step at a time). It exists to
// cross-validate the event-driven simulator — the two must agree to within
// tick resolution — and to quantify the cost of tick stepping in the
// ablation benchmarks. Single execution slot only, like Algorithm 1.
//
// step is the clock resolution in seconds (Algorithm 1 uses 1e-6; tests
// use coarser steps since error is O(step) per query).
func RunTick(p Params, step float64) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	if step <= 0 {
		step = 0.01
	}
	total := p.NumQueries + p.Warmup
	res := &Result{}
	if total == 0 {
		return res, nil
	}

	// Pre-draw arrivals and service times with the same RNG call order
	// as the event-driven simulator (interarrival then service, per
	// query), so both see identical workloads for a given seed.
	rng := dist.NewRNG(p.Seed)
	arr := p.Arrival
	if arr == nil {
		arr = dist.ForRate(p.ArrivalKind, p.ArrivalRate)
	}
	arrivals := make([]float64, total)
	services := make([]float64, total)
	t := 0.0
	for i := 0; i < total; i++ {
		t += arr.Sample(rng)
		arrivals[i] = t
		services[i] = p.Service.Sample(rng)
	}

	speedup := p.speedup()
	enabled := p.sprintingEnabled()
	budget := p.BudgetSeconds
	refill := p.budget().RefillRate()

	type tq struct {
		idx      int
		start    float64
		progress float64
		sprint   bool
		sprinted bool
		pending  bool
		timedOut bool
	}
	var queue []*tq
	var run *tq
	next := 0
	done := 0
	clock := 0.0

	for done < total {
		clock += step
		// Admit arrivals.
		for next < total && arrivals[next] <= clock {
			queue = append(queue, &tq{idx: next})
			next++
		}
		// Budget accrual and drain over this tick.
		delta := refill * step
		if run != nil && run.sprint {
			delta -= step
		}
		budget += delta
		if budget > p.BudgetSeconds {
			budget = p.BudgetSeconds
		}
		if budget <= 0 {
			budget = 0
			if run != nil && run.sprint {
				run.sprint = false
			}
		}
		// Timeout interrupts.
		if enabled {
			for _, q := range queue {
				if !q.timedOut && arrivals[q.idx]+p.Timeout <= clock {
					q.timedOut = true
					q.pending = true
				}
			}
			if run != nil && !run.timedOut && arrivals[run.idx]+p.Timeout <= clock {
				run.timedOut = true
				if !run.sprint && budget >= sprint.MinEngageSeconds {
					run.sprint = true
					run.sprinted = true
				}
			}
		}
		// Dispatch.
		if run == nil && len(queue) > 0 {
			run = queue[0]
			queue = queue[1:]
			run.start = clock
			if run.pending && enabled && budget >= sprint.MinEngageSeconds {
				run.sprint = true
				run.sprinted = true
			}
		}
		// Execute one tick.
		if run != nil {
			rate := 1.0
			if run.sprint {
				rate = speedup
			}
			run.progress += step * rate / services[run.idx]
			if run.progress >= 1 {
				if run.idx >= p.Warmup {
					res.RTs = append(res.RTs, clock-arrivals[run.idx])
					res.QueueingTimes = append(res.QueueingTimes, run.start-arrivals[run.idx])
					if run.sprinted {
						res.SprintedCount++
					}
				}
				run = nil
				done++
			}
		}
		if math.IsInf(clock, 0) {
			break
		}
	}
	return res, nil
}
