package explore

import (
	"context"

	"mdsprint/internal/dist"
)

// speculator is a speculating search's second goroutine and the one
// call it may have in flight. Only the search's goroutine touches its
// bookkeeping; the worker reads each candidate from req and writes the
// outcome before it signals done. Every method is a no-op on nil, the
// serial search.
type speculator struct {
	obj  func([]float64) (float64, error)
	req  chan []float64 // nil until the worker starts
	done chan struct{}

	// Written by the worker, read after done.
	rt       float64
	err      error
	pval     any
	panicked bool

	busy  bool // a call was started and its outcome not yet collected
	iter  int  // the iteration whose candidate it scores; -1 once moot
	calls int  // speculative calls started
	used  int  // speculative values the search consumed
}

// run is the worker: one call per candidate, its outcome (a panic
// included) handed back through done, until req is closed, when it
// closes done as it returns.
func (s *speculator) run() {
	defer close(s.done)
	for p := range s.req {
		s.rt, s.err, s.pval, s.panicked = call(s.obj, p)
		s.done <- struct{}{}
	}
}

// call runs obj at p, holding a panic as a value.
func call(obj func([]float64) (float64, error), p []float64) (rt float64, err error, pval any, panicked bool) {
	panicked = true
	defer func() {
		if panicked {
			pval = recover()
		}
	}()
	rt, err = obj(p)
	panicked = false
	return rt, err, nil, false
}

// ahead starts scoring the first proposal, from iteration from on, that
// moves off cur, drawn from g; none starts when every proposal before
// iteration n clamps onto cur or ctx is done. The first call starts the
// worker.
func (s *speculator) ahead(ctx context.Context, g dist.RNG, cur []float64, from, n int, space Space) {
	if s == nil || ctx.Err() != nil {
		return
	}
	s.drop()
	for j := from; j < n; j++ {
		if cand, moved := propose(&g, cur, space); moved {
			if s.req == nil {
				s.req = make(chan []float64, 1)
				s.done = make(chan struct{}, 1)
				go s.run()
			}
			s.busy, s.iter = true, j
			s.calls++
			s.req <- cand
			return
		}
	}
}

// holds reports whether a speculative call scores iteration i's
// candidate.
func (s *speculator) holds(i int) bool {
	return s != nil && s.busy && s.iter == i
}

// take returns the speculative value, waiting for it. A consumed panic
// is raised again here.
func (s *speculator) take() (float64, error) {
	<-s.done
	s.busy = false
	s.used++
	if s.panicked {
		panic(s.pval)
	}
	return s.rt, s.err
}

// moot marks the call in flight as scored for an incumbent that an
// acceptance has replaced.
func (s *speculator) moot() {
	if s != nil {
		s.iter = -1
	}
}

// drop waits for the call in flight, if any, and discards its outcome.
func (s *speculator) drop() {
	if s.busy {
		<-s.done
		s.busy = false
	}
}

// stop waits for the call in flight, then ends the worker and waits for
// it to return.
func (s *speculator) stop() {
	if s.req == nil {
		return
	}
	s.drop()
	close(s.req)
	<-s.done
}
