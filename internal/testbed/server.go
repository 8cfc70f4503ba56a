package testbed

import (
	"math"
	"sync"

	"mdsprint/internal/dist"
	"mdsprint/internal/sim"
	"mdsprint/internal/sprint"
	"mdsprint/internal/workload"
)

// execution tracks one query through the queue manager and execution
// engine. Progress is maintained piecewise: tau is the work fraction
// completed at segStart, and the current segment runs either at the
// sustained rate or along the sprint curve. Executions live in one slab
// indexed by query ID; the query's record is records[ID].
type execution struct {
	curve *workload.SprintCurve

	tau      float64 // progress at segment start
	segStart float64 // virtual time the current segment began
	running  bool
	sprint   bool
	toggle   float64 // dead time at the head of the sprint segment
	// stretch >= 1 slows the sprint segment's progress along the curve:
	// load-coupled degradation from the queue depth at engage time.
	stretch float64

	sprintStart float64
	pending     bool // timeout fired while queued: sprint at dispatch

	departEv  sim.Handle
	timeoutEv sim.Handle
}

// server wires Figure 3 together: query generator (arrival events), FIFO
// queue manager with timeout interrupts and budget accounting, and an
// execution engine with a fixed number of slots.
//
// Servers are pooled across runs: the event engine, its registered
// callbacks, the execution slab and the running set keep their capacity,
// and what depends on the config alone (sprint curves, service and
// arrival distributions) is memoized, so a run allocates nothing in
// steady state however many queries it simulates.
type server struct {
	cfg Config
	eng *sim.PooledEngine
	rng dist.RNG

	cbArrive, cbTimeout, cbDepart, cbBudget sim.CallbackID

	acct sprint.Accountant

	interarrival dist.Dist
	// Per mix component, indexed like cfg.Mix.Components.
	serviceDists []dist.Dist
	curves       []*workload.SprintCurve
	toggleCost   float64

	// Memos of config-derived state, kept across runs (see release).
	curveMemo map[curveKey]*workload.SprintCurve
	svcMemo   []distMemo // per mix component: its log-normal service
	arrMemo   distMemo   // the interarrival distribution

	// The FIFO queue is the ID range [head, arrived): queries enter in
	// arrival order, which is ID order, and leave from the head.
	head      int
	execs     []execution
	runningEx []int32 // query IDs in dispatch order
	freeSlots int

	budgetEv sim.Handle

	records []QueryRecord
	arrived int
	total   int
	lastDep float64
}

// curveKey names a sprint curve by everything curve reads: the
// class (whose phase shape must not change once it has run), the
// mechanism family, whether runtime effects are off, and the clipped
// speedup's bits.
type curveKey struct {
	class    *workload.Class
	parallel bool
	flat     bool
	speedup  uint64
}

// maxCurveMemo bounds a server's curve memo; a server that has seen more
// curves than this starts the memo over.
const maxCurveMemo = 64

// distMemo is one memoized distribution and the two parameters, by
// bits, it was built from.
type distMemo struct {
	kind dist.Kind
	a, b uint64
	d    dist.Dist
}

// get returns the memoized distribution if it was built from (kind, a,
// b), else nil.
func (m *distMemo) get(kind dist.Kind, a, b float64) dist.Dist {
	if m.d == nil || m.kind != kind || m.a != math.Float64bits(a) || m.b != math.Float64bits(b) {
		return nil
	}
	return m.d
}

// set memoizes d as built from (kind, a, b) and returns it.
func (m *distMemo) set(kind dist.Kind, a, b float64, d dist.Dist) dist.Dist {
	*m = distMemo{kind: kind, a: math.Float64bits(a), b: math.Float64bits(b), d: d}
	return d
}

// logNormal labels the memoized service distributions.
const logNormal dist.Kind = "lognormal"

var serverPool = sync.Pool{New: func() any { return newServer() }}

// newServer builds an empty server and registers its callbacks once.
func newServer() *server {
	s := &server{eng: sim.NewPooled()}
	s.cbArrive = s.eng.Register(func(int32) { s.arrive() })
	s.cbTimeout = s.eng.Register(s.onTimeout)
	s.cbDepart = s.eng.Register(s.depart)
	s.cbBudget = s.eng.Register(func(int32) { s.onBudgetEmpty() })
	return s
}

// reset prepares s for one run of cfg (defaults applied), keeping every
// pooled buffer's capacity. The run writes its records into records
// when that has room for them, else into fresh storage.
func (s *server) reset(cfg Config, records []QueryRecord) {
	s.cfg = cfg
	s.eng.Reset()
	s.rng.Reseed(cfg.Seed)
	s.interarrival = cfg.ArrivalOverride
	if s.interarrival == nil {
		s.interarrival = s.arrMemo.get(cfg.ArrivalKind, cfg.ArrivalRate, 0)
		if s.interarrival == nil {
			s.interarrival = s.arrMemo.set(cfg.ArrivalKind, cfg.ArrivalRate, 0, dist.ForRate(cfg.ArrivalKind, cfg.ArrivalRate))
		}
	}
	s.acct.ResetFor(cfg.Policy)
	s.toggleCost = 0
	if !cfg.DisableRuntimeEffects {
		s.toggleCost = cfg.Mechanism.ToggleOverhead()
	}
	s.serviceDists = s.serviceDists[:0]
	s.curves = s.curves[:0]
	if n := len(cfg.Mix.Components); len(s.svcMemo) < n {
		s.svcMemo = append(s.svcMemo, make([]distMemo, n-len(s.svcMemo))...)
	}
	for i, comp := range cfg.Mix.Components {
		c := comp.Class
		// Service times at this mechanism's sustained operating
		// point, including mix interference.
		svc := cfg.ServiceOverride
		if svc == nil {
			meanSvc := 1 / sprint.QPH(cfg.Mechanism.SustainedQPH(c)) * cfg.Mix.Interference
			if svc = s.svcMemo[i].get(logNormal, meanSvc, c.ServiceCV); svc == nil {
				svc = s.svcMemo[i].set(logNormal, meanSvc, c.ServiceCV, dist.LogNormalFromMeanCV(meanSvc, c.ServiceCV))
			}
		}
		s.serviceDists = append(s.serviceDists, svc)
		s.curves = append(s.curves, s.curve(c))
	}
	s.total = cfg.NumQueries + cfg.Warmup
	if cap(records) < s.total {
		records = make([]QueryRecord, s.total)
	}
	s.records = records[:s.total]
	if cap(s.execs) < s.total {
		s.execs = make([]execution, s.total)
	}
	s.execs = s.execs[:s.total]
	s.head = 0
	s.runningEx = s.runningEx[:0]
	s.freeSlots = cfg.Slots
	s.budgetEv = sim.Handle{}
	s.arrived = 0
	s.lastDep = 0
}

// release drops the finished run's inputs and outputs: its config,
// records and override distributions. The memos stay: up to
// maxCurveMemo sprint curves and the classes they were built for, and
// the last service and arrival distributions built, which hold only
// their own parameters.
func (s *server) release() {
	s.cfg = Config{}
	s.interarrival = nil
	clear(s.serviceDists)
	clear(s.curves)
	clear(s.execs)
	s.records = nil
}

// curve returns the sprint curve for class c: the mechanism's marginal
// speedup clipped to the policy's commanded speedup, shaped by the
// class's phase profile (or uniform when runtime effects are off). It
// builds each curve once per server.
func (s *server) curve(c *workload.Class) *workload.SprintCurve {
	speedup := s.cfg.Mechanism.MarginalSpeedup(c)
	if s.cfg.Policy.Speedup > 0 && s.cfg.Policy.Speedup < speedup {
		speedup = s.cfg.Policy.Speedup
	}
	if speedup < 1 {
		speedup = 1
	}
	parallel := s.cfg.Mechanism.ParallelismBased()
	key := curveKey{class: c, parallel: parallel, flat: s.cfg.DisableRuntimeEffects, speedup: math.Float64bits(speedup)}
	if cv, ok := s.curveMemo[key]; ok {
		return cv
	}
	shape := c.Phases.Shape(parallel)
	if s.cfg.DisableRuntimeEffects {
		shape = func(float64) float64 { return 1 }
	}
	if s.curveMemo == nil || len(s.curveMemo) >= maxCurveMemo {
		s.curveMemo = make(map[curveKey]*workload.SprintCurve)
	}
	cv := workload.NewSprintCurve(shape, speedup)
	s.curveMemo[key] = cv
	return cv
}

func (s *server) run() {
	if s.total == 0 {
		return
	}
	s.eng.Schedule(s.interarrival.Sample(&s.rng), s.cbArrive, 0)
	s.eng.RunAll()
}

// result writes the run into res: every query arrives and departs, and
// warmup queries are the first Warmup IDs, so the measured ones are the
// records' tail.
func (s *server) result(res *Result) {
	measured := s.records[s.cfg.Warmup:]
	sprinted := 0
	for i := range measured {
		if measured[i].Sprinted {
			sprinted++
		}
	}
	*res = Result{Config: s.cfg, Queries: measured, SprintedCount: sprinted, Duration: s.lastDep, records: s.records}
}

// queueLen is the number of arrived queries not yet dispatched.
func (s *server) queueLen() int { return s.arrived - s.head }

// arrive admits the next query: timestamp it, enqueue, arm its timeout and
// schedule the following arrival.
func (s *server) arrive() {
	now := s.eng.Now()
	id := s.arrived
	s.arrived++
	ci := s.cfg.Mix.PickIndex(&s.rng)
	s.records[id] = QueryRecord{
		ID:          id,
		Class:       s.cfg.Mix.Components[ci].Class.Name,
		Arrival:     now,
		ServiceTime: s.serviceDists[ci].Sample(&s.rng),
		Warm:        id < s.cfg.Warmup,
	}
	e := &s.execs[id]
	*e = execution{curve: s.curves[ci]}
	if p := s.cfg.Policy; !p.SprintingDisabled() {
		e.timeoutEv = s.eng.ScheduleFIFO(now+p.Timeout, s.cbTimeout, int32(id))
	}
	if s.arrived < s.total {
		s.eng.After(s.interarrival.Sample(&s.rng), s.cbArrive, 0)
	}
	s.dispatch()
}

// dispatch moves queries from the queue head into free execution slots.
func (s *server) dispatch() {
	now := s.eng.Now()
	for s.freeSlots > 0 && s.queueLen() > 0 {
		id := s.head
		s.head++
		e := &s.execs[id]
		rec := &s.records[id]
		s.freeSlots--
		e.running = true
		rec.Start = now
		e.tau = 0
		e.segStart = now
		s.runningEx = append(s.runningEx, int32(id))
		e.departEv = s.eng.Schedule(now+rec.ServiceTime, s.cbDepart, int32(id))
		if e.pending && s.acct.CanSprint(now) {
			s.engageSprint(int32(id))
		}
	}
}

// progressAt returns the work fraction query id has completed by time now.
func (s *server) progressAt(id int32, now float64) float64 {
	e := &s.execs[id]
	svc := s.records[id].ServiceTime
	elapsed := now - e.segStart
	if !e.sprint {
		tau := e.tau + elapsed/svc
		return math.Min(tau, 1)
	}
	elapsed -= e.toggle
	if elapsed < 0 {
		elapsed = 0
	}
	return e.curve.ProgressAfter(svc, e.tau, elapsed/e.stretch)
}

// onTimeout handles the timer interrupt of Section 2.1: queued queries are
// marked to sprint at dispatch; executing queries sprint immediately,
// budget permitting.
func (s *server) onTimeout(id int32) {
	e := &s.execs[id]
	s.records[id].TimedOut = true
	now := s.eng.Now()
	if !e.running {
		e.pending = true
		return
	}
	if !e.sprint && s.acct.CanSprint(now) {
		// Roll progress forward to now, then switch segments.
		e.tau = s.progressAt(id, now)
		e.segStart = now
		s.engageSprint(id)
	}
}

// engageSprint switches query id to sprinting from its current (tau,
// segStart) and re-keys its pending departure. Caller must have updated
// tau/segStart to now.
func (s *server) engageSprint(id int32) {
	e := &s.execs[id]
	rec := &s.records[id]
	now := s.eng.Now()
	s.acct.StartSprint(now)
	e.sprint = true
	e.toggle = s.toggleCost
	e.stretch = s.sprintStretch(e)
	e.sprintStart = now
	rec.Sprinted = true
	rec.SprintTau = e.tau
	remaining := e.toggle + e.stretch*e.curve.SprintedRemaining(rec.ServiceTime, e.tau)
	e.departEv = s.eng.Reschedule(e.departEv, now+remaining)
	s.replanBudget()
}

// sprintStretch computes the load-coupled degradation of a sprint engaging
// now: with q queries queued, the speedup gain over sustained shrinks by
// 1/(1 + coeff*q), which stretches the sprinted remainder's wall-clock by
// S_avg / S_degraded (capped by maxLoadDegradation).
func (s *server) sprintStretch(e *execution) float64 {
	if s.cfg.LoadCoeff <= 0 {
		return 1
	}
	sAvg := e.curve.EffectiveSpeedupFrom(e.tau)
	if sAvg <= 1 {
		return 1
	}
	degrade := 1 + s.cfg.LoadCoeff*float64(s.queueLen())
	if degrade > maxLoadDegradation {
		degrade = maxLoadDegradation
	}
	sEff := 1 + (sAvg-1)/degrade
	return sAvg / sEff
}

// replanBudget (re)schedules the budget-exhaustion interrupt at the
// accountant's current time-to-empty horizon.
func (s *server) replanBudget() {
	now := s.eng.Now()
	if tte := s.acct.TimeToEmpty(now); math.IsInf(tte, 1) {
		s.eng.Cancel(s.budgetEv)
		s.budgetEv = sim.Handle{}
	} else if s.budgetEv = s.eng.Reschedule(s.budgetEv, now+tte); s.budgetEv == (sim.Handle{}) {
		s.budgetEv = s.eng.Schedule(now+tte, s.cbBudget, 0)
	}
}

// onBudgetEmpty force-stops every active sprint: remaining work continues
// at the sustained rate (Figure 1's "sprinting budget is exhausted").
func (s *server) onBudgetEmpty() {
	now := s.eng.Now()
	for _, id := range s.runningEx {
		e := &s.execs[id]
		if !e.sprint {
			continue
		}
		e.tau = s.progressAt(id, now)
		s.stopSprint(id, now)
		e.segStart = now
		remaining := (1 - e.tau) * s.records[id].ServiceTime
		e.departEv = s.eng.Reschedule(e.departEv, now+remaining)
	}
	s.replanBudget()
}

// stopSprint ends query id's sprint accounting at time now.
func (s *server) stopSprint(id int32, now float64) {
	e := &s.execs[id]
	s.acct.StopSprint(now)
	s.records[id].SprintSeconds += now - e.sprintStart
	e.sprint = false
	e.toggle = 0
	e.stretch = 1
}

// depart completes query id: close out sprint accounting, free the slot,
// and dispatch the next queued query.
func (s *server) depart(id int32) {
	e := &s.execs[id]
	now := s.eng.Now()
	s.records[id].Depart = now
	s.lastDep = now
	if e.sprint {
		s.stopSprint(id, now)
		s.replanBudget()
	}
	s.eng.Cancel(e.timeoutEv)
	e.timeoutEv = sim.Handle{}
	for i, ri := range s.runningEx {
		if ri == id {
			s.runningEx = append(s.runningEx[:i], s.runningEx[i+1:]...)
			break
		}
	}
	e.running = false
	s.freeSlots++
	s.dispatch()
}
