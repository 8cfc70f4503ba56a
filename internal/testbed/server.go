package testbed

import (
	"math"
	"runtime"

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
}

// server wires Figure 3 together: query generator (arrival events), FIFO
// queue manager with timeout interrupts and budget accounting, and an
// execution engine with a fixed number of slots.
//
// Each pending event is a typed field holding its sim.Key: the next
// arrival, the budget interrupt (sim.Never when unset), each running
// query's departure beside it in the running set, and the timeouts in a
// lane armed per query ID.
//
// Servers are pooled across runs: the timeout lane, the execution slab
// and the running set keep their capacity, and what depends on the
// config alone (sprint curves, service and arrival distributions) is
// memoized, so a run allocates nothing in steady state however many
// queries it simulates.
type server struct {
	cfg Config
	rng dist.RNG

	clk      sim.Clock
	arriveEv sim.Key
	budgetEv sim.Key
	lane     sim.Lane

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
	runningEx []runEntry // in dispatch order
	freeSlots int

	records []QueryRecord
	arrived int
	total   int
	lastDep float64
}

// runEntry is a running query's ID and its departure's key.
type runEntry struct {
	dep sim.Key
	id  int32
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

// idleServers recycles servers across RunInto calls, one per CPU, the
// default worker count of the profiler's replays. Under a sync.Pool,
// servers and their buffers rebuilt after each collection were most of
// the bytes sprintbench's pipeline allocated once the simulator's runners
// stopped being rebuilt, and how many were rebuilt hung on when the
// collector ran.
var idleServers = sim.NewIdle[server](runtime.NumCPU())

// reset prepares s for one run of cfg (defaults applied), keeping every
// pooled buffer's capacity. The run writes its records into records
// when that has room for them, else into fresh storage.
func (s *server) reset(cfg Config, records []QueryRecord) {
	s.cfg = cfg
	s.clk.Reset()
	s.arriveEv = sim.Never
	s.budgetEv = sim.Never
	s.lane.Reset()
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
	s.arriveEv = s.clk.At(s.interarrival.Sample(&s.rng))
	for s.step() {
	}
}

// The event kinds step fires.
const (
	evNone = iota
	evArrive
	evBudget
	evTimeout
	evDepart
)

// step fires the earliest pending event by (time, seq), clearing its
// field before its handler runs, and reports false once none is left.
//
//sprint:hotpath event dispatch fires once per arrival, timeout, departure and budget interrupt of every profiled run
func (s *server) step() bool {
	next, kind, at := sim.Never, evNone, 0
	if s.arriveEv.Before(next) {
		next, kind = s.arriveEv, evArrive
	}
	if s.budgetEv.Before(next) {
		next, kind = s.budgetEv, evBudget
	}
	if s.lane.Len() > 0 {
		if f := s.lane.Front(); f.Before(next) {
			next, kind = f.Key, evTimeout
		}
	}
	for i := range s.runningEx {
		if s.runningEx[i].dep.Before(next) {
			next, kind, at = s.runningEx[i].dep, evDepart, i
		}
	}
	if kind == evNone {
		return false
	}
	s.clk.Fire(next)
	switch kind {
	case evArrive:
		s.arriveEv = sim.Never
		s.arrive()
	case evBudget:
		s.budgetEv = sim.Never
		s.onBudgetEmpty()
	case evTimeout:
		s.onTimeout(s.lane.Pop().Slot)
	default:
		s.runningEx[at].dep = sim.Never
		s.depart(at)
	}
	return true
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
	now := s.clk.Now()
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
		s.lane.Push(s.clk.At(now+p.Timeout), int32(id), int32(id))
	}
	if s.arrived < s.total {
		s.arriveEv = s.clk.After(s.interarrival.Sample(&s.rng))
	}
	s.dispatch()
}

// dispatch moves queries from the queue head into free execution slots.
func (s *server) dispatch() {
	now := s.clk.Now()
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
		s.runningEx = append(s.runningEx, runEntry{dep: sim.Never, id: int32(id)})
		ru := &s.runningEx[len(s.runningEx)-1]
		// A query that sprints from dispatch has its departure scheduled
		// once, at the sprinted time.
		if e.pending && s.acct.CanSprint(now) {
			ru.dep = s.clk.At(s.engageSprint(int32(id)))
			s.replanBudget()
		} else {
			ru.dep = s.clk.At(now + rec.ServiceTime)
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
	now := s.clk.Now()
	if !e.running {
		e.pending = true
		return
	}
	if !e.sprint && s.acct.CanSprint(now) {
		// Roll progress forward to now, then switch segments.
		e.tau = s.progressAt(id, now)
		e.segStart = now
		i := s.runIdx(id)
		s.runningEx[i].dep = s.clk.At(s.engageSprint(id))
		s.replanBudget()
	}
}

// runIdx returns running query id's position in the running set.
func (s *server) runIdx(id int32) int {
	for i := range s.runningEx {
		if s.runningEx[i].id == id {
			return i
		}
	}
	panic("testbed: query not running")
}

// engageSprint switches query id to sprinting from its current (tau,
// segStart) and returns its sprinted departure time. Caller must have
// updated tau/segStart to now, and then (re)keys the departure there
// before it replans the budget interrupt, so the two events take their
// seqs as they always have.
func (s *server) engageSprint(id int32) float64 {
	e := &s.execs[id]
	rec := &s.records[id]
	now := s.clk.Now()
	s.acct.StartSprint(now)
	e.sprint = true
	e.toggle = s.toggleCost
	e.stretch = s.sprintStretch(e)
	e.sprintStart = now
	rec.Sprinted = true
	rec.SprintTau = e.tau
	remaining := e.toggle + e.stretch*e.curve.SprintedRemaining(rec.ServiceTime, e.tau)
	return now + remaining
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

// replanBudget keys the budget-exhaustion interrupt at the accountant's
// current time-to-empty horizon, or unsets it when the level is not
// falling.
func (s *server) replanBudget() {
	now := s.clk.Now()
	if tte := s.acct.TimeToEmpty(now); math.IsInf(tte, 1) {
		s.budgetEv = sim.Never
	} else {
		s.budgetEv = s.clk.At(now + tte)
	}
}

// onBudgetEmpty force-stops every active sprint: remaining work continues
// at the sustained rate (Figure 1's "sprinting budget is exhausted").
func (s *server) onBudgetEmpty() {
	now := s.clk.Now()
	for i := range s.runningEx {
		id := s.runningEx[i].id
		e := &s.execs[id]
		if !e.sprint {
			continue
		}
		e.tau = s.progressAt(id, now)
		s.stopSprint(id, now)
		e.segStart = now
		remaining := (1 - e.tau) * s.records[id].ServiceTime
		s.runningEx[i].dep = s.clk.At(now + remaining)
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

// depart completes the running set's query i: close out sprint
// accounting, free the slot, and dispatch the next queued query.
func (s *server) depart(i int) {
	id := s.runningEx[i].id
	e := &s.execs[id]
	now := s.clk.Now()
	s.records[id].Depart = now
	s.lastDep = now
	if e.sprint {
		s.stopSprint(id, now)
		s.replanBudget()
	}
	s.lane.Cancel(id)
	s.runningEx = append(s.runningEx[:i], s.runningEx[i+1:]...)
	e.running = false
	s.freeSlots++
	s.dispatch()
}
