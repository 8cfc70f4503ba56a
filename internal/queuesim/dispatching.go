package queuesim

import "math"

// This file is the simulator's half of the multi-queue dispatching layer.
// With Params.Servers > 1 the runner keeps one ready queue and Slots
// execution slots per server, all sharing a single sprint budget
// Accountant, and asks a Dispatcher to route each arrival. The dispatcher
// implementations (JSQ, least-work-left, round-robin, random-d) live in
// internal/queuesim/dispatch; this package only defines the contract so
// the dependency points outward.

// ServerView is the read-only load picture a Dispatcher decides from.
// The Runner implements it; Pick must not retain the view beyond the
// call.
type ServerView interface {
	// NumServers returns the number of per-server queues, k.
	NumServers() int
	// QueueLen returns the number of queries at server s, queued plus
	// in service.
	QueueLen(s int) int
	// WorkLeft returns the remaining service-time seconds at server s:
	// the unserved work of its queued queries plus the unfinished
	// remainder of its running ones, at sustained rate.
	WorkLeft(s int) float64
}

// DispatchState is the per-run mutable state a Dispatcher may use. The
// runner owns it and resets it at the start of every run, so stateful
// policies (round-robin's cursor, random-d's candidate draws) stay
// deterministic under the run's seed and dispatcher values themselves can
// be stateless, immutable and safely shared across concurrent runners.
type DispatchState struct {
	// RNG is the run's main random stream (shared with arrival and
	// service sampling, so dispatch draws are part of the run's
	// deterministic event sequence).
	RNG rngIntn
	// Cursor is free for cyclic policies; zero at run start.
	Cursor int
}

// rngIntn is the slice of dist.RNG a dispatcher may draw from.
type rngIntn interface {
	// Intn returns a uniform int in [0, n).
	Intn(n int) int
}

// Dispatcher routes each arrival to one of k per-server queues. Pick
// returns the chosen server index in [0, view.NumServers()); an
// out-of-range pick panics the run. Implementations must be stateless
// (all mutable state lives in DispatchState) and must encode every
// behaviour-affecting parameter in Canon, which the sweep engine
// fingerprints for memoization.
type Dispatcher interface {
	// Canon returns the dispatcher's canonical spec string, e.g. "jsq"
	// or "rnd(2)".
	Canon() string
	// Pick chooses the server for the arriving query.
	Pick(view ServerView, state *DispatchState) int
}

// NumServers implements ServerView: the number of per-server queues.
func (r *Runner) NumServers() int { return r.servers }

// QueueLen implements ServerView: queries at server s, queued plus in
// service.
func (r *Runner) QueueLen(s int) int { return int(r.srvLive[s]) }

// WorkLeft implements ServerView: remaining service seconds at server s
// at sustained rate, summing queued queries' unserved work and running
// queries' unfinished remainder.
func (r *Runner) WorkLeft(s int) float64 {
	now := r.clk.Now()
	sum := 0.0
	if r.ordered {
		for _, qi := range r.heaps[s].idx {
			q := &r.pool[qi]
			sum += (1 - q.tau) * q.service
		}
	} else if r.disc.Kind != DiscPS {
		rq := &r.queues[s]
		for i := 0; i < rq.n; i++ {
			q := &r.pool[rq.buf[(rq.head+i)%len(rq.buf)]]
			sum += (1 - q.tau) * q.service
		}
	}
	si := int32(s)
	for _, ri := range r.running {
		q := &r.pool[ri]
		if q.srv != si {
			continue
		}
		if r.disc.Kind == DiscPS {
			tau := math.Min(q.tau+(now-q.seg)*r.psRate[s]/q.service, 1)
			sum += (1 - tau) * q.service
		} else {
			sum += (1 - r.progress(q, now)) * q.service
		}
	}
	return sum
}
