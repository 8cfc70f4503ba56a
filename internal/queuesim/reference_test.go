package queuesim

import (
	"container/heap"
	"math"

	"mdsprint/internal/dist"
	"mdsprint/internal/obs"
	"mdsprint/internal/sprint"
)

// This file preserves the original heap-and-closure simulator verbatim
// (one *refQuery and 2-3 *refEvent allocations plus per-event closures
// per simulated query, and a head-shifting slice FIFO), on its own copy
// of the original closure engine so that it shares no code with
// sim.PooledEngine. It exists so the differential test suite can prove
// the pooled engine in queuesim.go produces bit-identical results — RT
// and queueing-time vectors, tracer event sequences, sprint accounting —
// across seeds, policies and refill modes. Any semantic change to the
// simulator must land in both implementations or the differential suite
// fails, which is the point.
//
// Differences from the production path, deliberate and test-invisible:
// the reference does not flush obs metrics or read the run clock (metrics
// are not part of the equivalence contract, and skipping them keeps
// differential tests from double-counting process-wide counters).

// refEvent is a scheduled callback of the reference engine.
type refEvent struct {
	time      float64
	seq       uint64 // tie-breaker: FIFO among same-time events
	action    func()
	cancelled bool
}

// refEvents is a min-heap of events ordered by (time, seq).
type refEvents []*refEvent

func (h refEvents) Len() int { return len(h) }
func (h refEvents) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h refEvents) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refEvents) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refEvents) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}

// refEngine is the original closure-and-heap event engine: one *refEvent
// and one closure per scheduled event, cancelled events dropped lazily
// when they reach the top of the heap.
type refEngine struct {
	now    float64
	seq    uint64
	events refEvents
}

func (e *refEngine) Now() float64 { return e.now }

// Schedule registers action to run at time at; same-time events fire in
// scheduling order.
func (e *refEngine) Schedule(at float64, action func()) *refEvent {
	if at < e.now {
		panic("queuesim: reference schedule before now")
	}
	ev := &refEvent{time: at, seq: e.seq, action: action}
	e.seq++
	heap.Push(&e.events, ev)
	return ev
}

func (e *refEngine) After(delay float64, action func()) *refEvent {
	return e.Schedule(e.now+delay, action)
}

func (e *refEngine) Cancel(ev *refEvent) { ev.cancelled = true }

// Reschedule cancels ev and schedules its action afresh at time at.
func (e *refEngine) Reschedule(ev *refEvent, at float64) *refEvent {
	e.Cancel(ev)
	return e.Schedule(at, ev.action)
}

// RunAll fires events in (time, seq) order until none remain.
func (e *refEngine) RunAll() {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*refEvent)
		if !ev.cancelled {
			e.now = ev.time
			ev.action()
		}
	}
}

// refQuery is Algorithm 1's query object, heap-allocated per arrival.
type refQuery struct {
	id          int
	arrival     float64
	service     float64
	start       float64
	tau         float64 // progress at segment start
	seg         float64 // segment start time
	sprint      bool
	sprintStart float64
	pending     bool
	warm        bool

	departEv  *refEvent
	timeoutEv *refEvent
	running   bool
	sprinted  bool
}

// refState is the running reference simulation.
type refState struct {
	p       Params
	eng     *refEngine
	rng     *dist.RNG
	arr     dist.Dist
	acct    *sprint.Accountant
	speedup float64
	tr      obs.QueryTracer // nil when tracing is off

	queue    []*refQuery
	running  []*refQuery
	free     int
	budgetEv *refEvent

	arrived     int
	engages     int
	exhaustions int
	exhausted   bool
	res         Result
}

// runReference simulates the configured queue with the original engine.
func runReference(p Params) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	arr := p.Arrival
	if arr == nil {
		arr = dist.ForRate(p.ArrivalKind, p.ArrivalRate)
	}
	s := &refState{
		p:       p,
		eng:     &refEngine{},
		rng:     dist.NewRNG(p.Seed),
		arr:     arr,
		acct:    new(sprint.Accountant),
		speedup: p.speedup(),
		tr:      p.Tracer,
		free:    p.Slots,
	}
	s.acct.ResetFor(p.budget())
	total := p.NumQueries + p.Warmup
	if total == 0 {
		return &s.res, nil
	}
	s.res.RTs = make([]float64, 0, p.NumQueries)
	s.res.QueueingTimes = make([]float64, 0, p.NumQueries)
	s.eng.Schedule(s.arr.Sample(s.rng), s.arrive)
	s.eng.RunAll()
	s.res.Engages = s.engages
	s.res.Exhaustions = s.exhaustions
	return &s.res, nil
}

// noteLive records the live-query high-water mark the pooled engine
// tracks through its slab, computed here from the logical queue + running
// sets so the two implementations report the identical MaxLive.
func (s *refState) noteLive() {
	if live := len(s.queue) + len(s.running); live > s.res.MaxLive {
		s.res.MaxLive = live
	}
}

func (s *refState) arrive() {
	now := s.eng.Now()
	id := s.arrived
	s.arrived++
	q := &refQuery{
		id:      id,
		arrival: now,
		service: s.p.Service.Sample(s.rng),
		warm:    id < s.p.Warmup,
	}
	if s.tr != nil {
		s.tr.Event(obs.QueryEvent{Type: obs.EvArrival, Time: now, Query: q.id, Value: q.service})
	}
	s.queue = append(s.queue, q)
	s.noteLive()
	if s.p.sprintingEnabled() {
		q.timeoutEv = s.eng.Schedule(now+s.p.Timeout, func() { s.onTimeout(q) })
	}
	if s.arrived < s.p.NumQueries+s.p.Warmup {
		s.eng.After(s.arr.Sample(s.rng), s.arrive)
	}
	s.dispatch()
}

func (s *refState) dispatch() {
	now := s.eng.Now()
	for s.free > 0 && len(s.queue) > 0 {
		q := s.queue[0]
		s.queue = s.queue[1:]
		s.free--
		q.running = true
		q.start = now
		q.seg = now
		q.tau = 0
		s.running = append(s.running, q)
		if s.tr != nil {
			s.tr.Event(obs.QueryEvent{Type: obs.EvServiceStart, Time: now, Query: q.id, Value: now - q.arrival})
		}
		if q.pending && s.acct.CanSprint(now) {
			s.engage(q)
		} else {
			q.departEv = s.eng.Schedule(now+q.service, func() { s.depart(q) })
		}
	}
}

// progress rolls q's completed-work fraction forward to now.
func (s *refState) progress(q *refQuery, now float64) float64 {
	rate := 1.0
	if q.sprint {
		rate = s.speedup
	}
	tau := q.tau + (now-q.seg)*rate/q.service
	return math.Min(tau, 1)
}

func (s *refState) onTimeout(q *refQuery) {
	now := s.eng.Now()
	if s.tr != nil {
		s.tr.Event(obs.QueryEvent{Type: obs.EvTimeout, Time: now, Query: q.id, Value: s.p.Timeout})
	}
	if !q.running {
		q.pending = true
		return
	}
	if !q.sprint && s.acct.CanSprint(now) {
		q.tau = s.progress(q, now)
		q.seg = now
		s.engage(q)
	}
}

// engage applies Equation 1: the remaining execution shrinks by mu/mu_e.
func (s *refState) engage(q *refQuery) {
	now := s.eng.Now()
	s.engages++
	if s.tr != nil {
		level := s.acct.Level(now)
		if s.exhausted {
			s.tr.Event(obs.QueryEvent{Type: obs.EvRefill, Time: now, Query: q.id, Value: level})
		}
		s.tr.Event(obs.QueryEvent{Type: obs.EvSprintStart, Time: now, Query: q.id, Value: level})
	}
	s.exhausted = false
	s.acct.StartSprint(now)
	q.sprint = true
	q.sprinted = true
	q.sprintStart = now
	remaining := (1 - q.tau) * q.service / s.speedup
	if q.departEv != nil {
		s.eng.Cancel(q.departEv)
	}
	q.departEv = s.eng.Schedule(now+remaining, func() { s.depart(q) })
	s.replanBudget()
}

func (s *refState) replanBudget() {
	now := s.eng.Now()
	if s.budgetEv != nil {
		s.eng.Cancel(s.budgetEv)
		s.budgetEv = nil
	}
	tte := s.acct.TimeToEmpty(now)
	if math.IsInf(tte, 1) {
		return
	}
	s.budgetEv = s.eng.Schedule(now+tte, s.onBudgetEmpty)
}

func (s *refState) onBudgetEmpty() {
	now := s.eng.Now()
	s.budgetEv = nil
	s.exhaustions++
	s.exhausted = true
	if s.tr != nil {
		active := 0
		for _, q := range s.running {
			if q.sprint {
				active++
			}
		}
		s.tr.Event(obs.QueryEvent{Type: obs.EvBudgetExhausted, Time: now, Query: -1, Value: float64(active)})
	}
	for _, q := range s.running {
		if !q.sprint {
			continue
		}
		q.tau = s.progress(q, now)
		q.seg = now
		s.acct.StopSprint(now)
		q.sprint = false
		s.res.SprintSeconds += now - q.sprintStart
		if s.tr != nil {
			s.tr.Event(obs.QueryEvent{Type: obs.EvSprintStop, Time: now, Query: q.id, Value: now - q.sprintStart})
		}
		remaining := (1 - q.tau) * q.service
		q.departEv = s.eng.Reschedule(q.departEv, now+remaining)
	}
	s.replanBudget()
}

func (s *refState) depart(q *refQuery) {
	now := s.eng.Now()
	s.res.Duration = now
	if q.sprint {
		s.acct.StopSprint(now)
		q.sprint = false
		s.res.SprintSeconds += now - q.sprintStart
		if s.tr != nil {
			s.tr.Event(obs.QueryEvent{Type: obs.EvSprintStop, Time: now, Query: q.id, Value: now - q.sprintStart})
		}
		s.replanBudget()
	}
	if s.tr != nil {
		s.tr.Event(obs.QueryEvent{Type: obs.EvDeparture, Time: now, Query: q.id, Value: now - q.arrival})
	}
	if q.timeoutEv != nil {
		s.eng.Cancel(q.timeoutEv)
		q.timeoutEv = nil
	}
	for i, rq := range s.running {
		if rq == q {
			s.running = append(s.running[:i], s.running[i+1:]...)
			break
		}
	}
	q.running = false
	if !q.warm {
		s.res.RTs = append(s.res.RTs, now-q.arrival)
		s.res.QueueingTimes = append(s.res.QueueingTimes, q.start-q.arrival)
		if q.sprinted {
			s.res.SprintedCount++
		}
	}
	s.free++
	s.dispatch()
}
