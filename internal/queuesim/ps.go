package queuesim

import (
	"math"

	"mdsprint/internal/obs"
	"mdsprint/internal/sim"
)

// Processor sharing: every query at a server progresses simultaneously at
// rate min(1, Slots/n). Between membership changes the shared rate is
// constant, so the discipline stays event-driven: each server keeps one
// pending departure event for its least-remaining query, and every
// arrival or departure rolls all progress forward at the old rate, then
// recomputes the rate and the next departure. PS never queues (so
// QueueingTimes are zero) and never sprints (validated away: with every
// query always in service there is no "has waited longer than the
// timeout" moment for the mechanism to trigger on).

// psAdmit puts an arriving query straight into service at server s.
func (r *Runner) psAdmit(s int32, qi int32, now float64) {
	r.psAdvance(s, now)
	q := &r.pool[qi]
	q.running = true
	q.started = true
	q.start = now
	q.seg = now
	q.tau = 0
	r.running = append(r.running, qi)
	if r.tr != nil {
		r.emit(obs.EvServiceStart, now, qi, 0)
	}
	r.psReplan(s, now)
}

// psAdvance rolls every active query at server s forward at the sharing
// rate in force since the server's last membership change.
func (r *Runner) psAdvance(s int32, now float64) {
	rate := r.psRate[s]
	for _, ri := range r.running {
		q := &r.pool[ri]
		if q.srv != s {
			continue
		}
		q.tau = math.Min(q.tau+(now-q.seg)*rate/q.service, 1)
		q.seg = now
	}
}

// psReplan recomputes server s's sharing rate after a membership change
// and keys its next departure (the query with the least remaining
// work). Iteration order over the running set is deterministic, so the
// winner under ties is too.
func (r *Runner) psReplan(s int32, now float64) {
	r.psDep[s].key = sim.Never
	n := 0
	next := int32(-1)
	best := math.Inf(1)
	for _, ri := range r.running {
		q := &r.pool[ri]
		if q.srv != s {
			continue
		}
		n++
		if rem := (1 - q.tau) * q.service; rem < best {
			best = rem
			next = ri
		}
	}
	if next < 0 {
		r.psRate[s] = 1
		return
	}
	rate := 1.0
	if k := float64(r.slotsPer); float64(n) > k {
		rate = k / float64(n)
	}
	r.psRate[s] = rate
	r.psDep[s] = depEntry{key: r.clk.At(now + best/rate), qi: next}
}

// psDepart retires server s's least-remaining query once its processor
// share has carried it to completion.
func (r *Runner) psDepart(s int32) {
	now := r.clk.Now()
	qi := r.psDep[s].qi
	q := &r.pool[qi]
	r.psAdvance(s, now)
	r.res.Duration = now
	if r.tr != nil {
		r.emit(obs.EvDeparture, now, qi, now-q.arrival)
	}
	r.unrun(qi)
	q.running = false
	if !q.warm {
		r.res.RTs = append(r.res.RTs, now-q.arrival)
		r.res.QueueingTimes = append(r.res.QueueingTimes, 0)
	}
	r.srvLive[s]--
	r.freeQuery(qi)
	r.psReplan(s, now)
}
