// Package queuesim implements the paper's timeout-aware queue simulator
// (Section 2.2, Algorithm 1): a G/G/k discrete-event simulation that
// understands sprint timeouts, budgets and refill, and models a sprint as
// a linear speedup on the query's remaining execution time (Equation 1):
//
//	depart = clock + (1 - tau) * s * mu / mu_e
//
// where s is the query's sampled service time, tau its completed-work
// fraction, mu the service rate and mu_e the (effective or marginal)
// sprint rate.
//
// This simulator is the first-principles half of the hybrid model. It
// deliberately knows nothing about phase behaviour, toggle overheads or
// load coupling — those runtime factors are what the effective sprint
// rate (internal/calib) and the random decision forest absorb.
//
// The paper's reference implementation steps a fine-resolution clock;
// this one schedules events, which is semantically equivalent (see
// tick_test.go for the cross-validation) and fast enough to answer the
// thousands of what-if queries policy exploration needs (Section 3.6).
//
// Because every consumer — calibration bisection, the sweep engine, the
// annealing search, colocation packing — bottoms out in millions of Run
// calls, the hot path is allocation-free: queries live in a slab pool
// addressed by index, each pending event is a typed field holding its
// sim.Key (the next arrival, the budget interrupt, the running queries'
// departures side by side, processor sharing's departure per server)
// with the sprint timeouts in a sim.Lane, the FIFO is a ring buffer, and
// a reusable Runner carries every buffer (including the RNG and budget
// accountant) across runs. Steady state simulates a query with zero heap
// allocations (enforced by TestRunnerZeroAllocsPerQuery). The original
// heap-and-closure implementation is preserved, on its own copy of the
// closure engine, in reference_test.go, and the differential suite proves
// the two produce bit-identical results.
package queuesim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"mdsprint/internal/dist"
	"mdsprint/internal/obs"
	"mdsprint/internal/sim"
	"mdsprint/internal/sprint"
	"mdsprint/internal/stats"
)

// Params configures one simulation.
type Params struct {
	// ArrivalRate in queries/second; ArrivalKind selects the family.
	ArrivalRate float64
	ArrivalKind dist.Kind
	// Arrival, when non-nil, overrides (ArrivalRate, ArrivalKind) with
	// an arbitrary interarrival distribution — the G in G/G/k.
	// ArrivalRate must still be set to the distribution's rate for
	// validation and reporting.
	Arrival dist.Dist
	// Service is the service-time distribution at the sustained rate,
	// typically an Empirical distribution resampling profiler
	// measurements ("we randomly sample service time data collected
	// during profiling", Section 2.2).
	Service dist.Dist
	// ServiceRate is mu in queries/second.
	ServiceRate float64
	// SprintRate is mu_e (hybrid model) or mu_m (No-ML baseline), in
	// queries/second.
	SprintRate float64
	// Timeout, BudgetSeconds, RefillTime define the sprinting policy.
	// A negative timeout disables sprinting.
	Timeout       float64
	BudgetSeconds float64
	RefillTime    float64
	// Refill selects the budget-refill semantics (continuous token
	// bucket by default; the paper's window-snap clause via
	// sprint.RefillWindow).
	Refill sprint.RefillMode
	// Slots is the execution-engine concurrency (default 1). With
	// Servers > 1 every server gets its own Slots execution slots.
	Slots int
	// Discipline selects the ready-queue ordering (FIFO by default; see
	// ParseDiscipline for the spec grammar). The PS discipline requires
	// sprinting disabled.
	Discipline Discipline
	// Servers fans arrivals across that many independent queue+slot
	// groups (default 1), each running the same Discipline but all
	// sharing one sprint budget Accountant. Servers > 1 requires a
	// Dispatch policy.
	Servers int
	// Dispatch routes each arrival to a server when Servers > 1 (see
	// internal/queuesim/dispatch for the catalog). Ignored — and
	// dropped by Canonical — when Servers <= 1.
	Dispatch Dispatcher
	// NumQueries measured per run (default 1000); Warmup excluded.
	NumQueries int
	Warmup     int
	Seed       uint64
	// Tracer, when non-nil, receives per-query lifecycle events
	// (arrival, service start, sprint start/stop, timeout, budget
	// exhaustion, refill, departure). A nil tracer skips every hook;
	// see BenchmarkSimulateOne for the enforced disabled-overhead
	// budget. Predict replays its replications serially into the same
	// tracer; one shared across Params that run concurrently (a sweep
	// batch, say) must be safe for concurrent use (obs.RingTracer is).
	Tracer obs.QueryTracer
	// Clock times the run for the flushed metrics (run seconds, event
	// rate). Simulation itself runs on virtual time and never reads it;
	// nil uses the real clock. Inject obs.ManualClock to keep measured
	// regions reproducible (the detflow analyzer forbids bare
	// time.Now in this package).
	Clock obs.Clock
}

func (p Params) withDefaults() Params {
	if p.Slots == 0 {
		p.Slots = 1
	}
	if p.NumQueries == 0 {
		p.NumQueries = 1000
	}
	if p.ArrivalKind == "" {
		p.ArrivalKind = dist.KindExponential
	}
	p.Discipline = p.Discipline.canonical()
	if p.Servers == 0 {
		p.Servers = 1
	}
	if p.Servers <= 1 {
		p.Dispatch = nil
	}
	return p
}

// Canonical returns p with the simulator's defaults applied — the normal
// form under which two Params values configure the same simulation. A
// zero Slots and an explicit Slots=1 canonicalize identically, as do a
// zero and an explicit default NumQueries and an empty and an explicit
// exponential ArrivalKind. internal/sweep fingerprints Canonical()
// output so equivalent spellings memoize to one cache entry.
func (p Params) Canonical() Params { return p.withDefaults() }

func (p Params) validate() error {
	if p.ArrivalRate <= 0 || math.IsNaN(p.ArrivalRate) {
		return fmt.Errorf("queuesim: arrival rate %v must be positive", p.ArrivalRate)
	}
	if p.Service == nil {
		return fmt.Errorf("queuesim: service distribution required")
	}
	if p.ServiceRate <= 0 {
		return fmt.Errorf("queuesim: service rate %v must be positive", p.ServiceRate)
	}
	if p.SprintRate < 0 {
		return fmt.Errorf("queuesim: sprint rate %v must be non-negative", p.SprintRate)
	}
	if p.Slots < 0 || p.NumQueries < 0 || p.Warmup < 0 {
		return fmt.Errorf("queuesim: negative slots/queries/warmup")
	}
	if err := p.Discipline.validate(); err != nil {
		return err
	}
	if p.Discipline.canonical().Kind == DiscPS && p.sprintingEnabled() {
		return fmt.Errorf("queuesim: the ps discipline does not support sprinting (disable the timeout or budget)")
	}
	if p.Servers < 0 {
		return fmt.Errorf("queuesim: negative servers %d", p.Servers)
	}
	if p.Servers > 1 && p.Dispatch == nil {
		return fmt.Errorf("queuesim: servers=%d requires a dispatch policy", p.Servers)
	}
	return nil
}

// speedup returns the sprint processing-rate multiplier mu_e / mu. Values
// below 1 are allowed: a calibrated effective rate under the service rate
// expresses sprints whose runtime overheads (toggling under congestion)
// exceed their benefit, per Equation 2's unconstrained x. A floor of 0.1
// guards the arithmetic.
func (p Params) speedup() float64 {
	if p.SprintRate <= 0 {
		return 1
	}
	s := p.SprintRate / p.ServiceRate
	if s < 0.1 {
		return 0.1
	}
	return s
}

// Sprinting reports whether this configuration's sprint mechanism is
// live — a non-negative timeout, a positive budget, and a sprint rate
// that actually changes the processing rate. Surrogate layers
// (internal/queuesim/analytic) use it as an applicability gate: closed
// forms only describe the no-sprint queue.
func (p Params) Sprinting() bool { return p.sprintingEnabled() }

// sprintingEnabled mirrors the policy-disabling conventions of
// sprint.Policy. Note speedups below 1 keep sprinting "enabled": the
// mechanism still toggles, it just hurts.
func (p Params) sprintingEnabled() bool {
	//lint:ignore floateq speedup() yields exactly 1 as its no-sprint sentinel; ratios near 1 must keep the mechanism toggling
	return p.Timeout >= 0 && p.BudgetSeconds > 0 && p.speedup() != 1
}

// Result is one run's output.
type Result struct {
	// RTs are measured response times in departure order (which is
	// arrival order for a single-slot FIFO queue, but not for multiple
	// slots or the reordering disciplines).
	RTs []float64
	// QueueingTimes are the corresponding waits before first dispatch,
	// paired index-by-index with RTs.
	QueueingTimes []float64
	// SprintedCount is how many measured queries sprinted.
	SprintedCount int
	// SprintSeconds is the total budget consumed over the whole run
	// (including warmup), and Duration the virtual time of the last
	// departure. Together they tell a policy search whether a timeout
	// exhausts the budget (the Few-to-Many criterion).
	SprintSeconds float64
	Duration      float64
	// Engages counts sprint engagements and Exhaustions budget-drain
	// episodes over the whole run (including warmup) — the counters the
	// simulator also flushes to the metrics registry.
	Engages     int
	Exhaustions int
	// Preemptions counts mid-service displacements over the whole run —
	// nonzero only under the preemptive disciplines (SRPT, SERPT).
	Preemptions int
	// MaxLive is the query pool's high-water mark: the largest number of
	// queries simultaneously resident (queued + in service). It bounds
	// the simulator's working set — departed queries are recycled, never
	// retained for the rest of the run.
	MaxLive int
}

// BudgetSupply returns the total sprint-seconds the policy made available
// over the run: initial capacity plus refill accrual.
func (r *Result) BudgetSupply(p Params) float64 {
	return p.BudgetSeconds + p.budget().RefillRate()*r.Duration
}

// BudgetUtilization returns the fraction of the available budget the run
// consumed, in [0, 1].
func (r *Result) BudgetUtilization(p Params) float64 {
	supply := r.BudgetSupply(p)
	if supply <= 0 {
		return 0
	}
	u := r.SprintSeconds / supply
	if u > 1 {
		u = 1
	}
	return u
}

// MeanRT returns the run's mean response time.
func (r *Result) MeanRT() float64 { return stats.Mean(r.RTs) }

// simMetrics are the queue simulator's process-wide metrics in the
// default registry. Simulators accumulate locally and flush once per run,
// keeping the event loop free of shared-memory traffic.
var simMetrics = struct {
	runs, queries, events *obs.Counter
	sprints, exhaustions  *obs.Counter
	eventsPerSec          *obs.Gauge
	runSeconds            *obs.Histogram
}{
	runs:         obs.Default().Counter("mdsprint_sim_runs_total", "completed queue-simulator runs"),
	queries:      obs.Default().Counter("mdsprint_sim_queries_total", "queries simulated (including warmup)"),
	events:       obs.Default().Counter("mdsprint_sim_events_total", "discrete events fired by the simulator engine"),
	sprints:      obs.Default().Counter("mdsprint_sim_sprints_total", "sprints engaged"),
	exhaustions:  obs.Default().Counter("mdsprint_sim_budget_exhaustions_total", "budget-exhaustion episodes"),
	eventsPerSec: obs.Default().Gauge("mdsprint_sim_events_per_second", "engine event rate of the most recent run"),
	runSeconds:   obs.Default().Histogram("mdsprint_sim_run_seconds", "wall-clock seconds per simulator run", 0),
}

// flushMetrics records one finished run's totals.
func flushMetrics(queries, fired, engages, exhaustions int, elapsed float64) {
	simMetrics.runs.Inc()
	simMetrics.queries.Add(float64(queries))
	simMetrics.events.Add(float64(fired))
	simMetrics.sprints.Add(float64(engages))
	simMetrics.exhaustions.Add(float64(exhaustions))
	simMetrics.runSeconds.Observe(elapsed)
	if elapsed > 0 {
		simMetrics.eventsPerSec.Set(float64(fired) / elapsed)
	}
}

// budget returns p's budget clause as a sprint policy.
func (p Params) budget() sprint.Policy {
	return sprint.Policy{BudgetSeconds: p.BudgetSeconds, RefillTime: p.RefillTime, Refill: p.Refill}
}

// seedStride spaces per-replication seeds: rep i runs with
// Seed + i*seedStride (the splitmix64 golden-gamma increment), matching
// the derivation RunReps, Predict and calib's dataset sharding all use.
const seedStride = 0x9e3779b97f4a7c15

// repSeed derives replication i's seed from the base seed.
func repSeed(base uint64, i int) uint64 {
	return base + uint64(i)*seedStride
}

// query is Algorithm 1's query object, pooled: queries live in a Runner's
// slab and are addressed by index. While it runs its departure is keyed
// at deps[dep], and its timeout waits in the Runner's lane, armed for its
// slot under its id.
type query struct {
	arrival     float64
	service     float64
	pred        float64 // SERPT's noisy service-time prediction
	start       float64
	tau         float64 // progress at segment start
	seg         float64 // segment start time
	sprintStart float64
	key         float64 // ready-heap ordering key (ordered disciplines)

	id  int32
	srv int32 // server this query was dispatched to
	tie int32 // ready-heap tie-break
	dep int32 // position of its departure in deps while it runs

	sprint   bool
	pending  bool
	warm     bool
	running  bool
	sprinted bool
	started  bool // service has begun at least once (preemption-aware)
	toFired  bool // sprint timeout has fired (re-arms pending on preemption)
}

// ringQ is a growable FIFO ring buffer of query-pool indices. It replaces
// the old head-shifting slice (s.queue = s.queue[1:]), which pinned every
// departed query in the backing array for the whole run; the ring reuses
// its buffer and holds only the currently waiting queries. Its capacity
// is a power of two (it starts at 8 and doubles), so positions wrap with
// a mask.
type ringQ struct {
	buf  []int32
	head int
	n    int
}

func (q *ringQ) reset()   { q.head, q.n = 0, 0 }
func (q *ringQ) len() int { return q.n }

func (q *ringQ) push(v int32) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

func (q *ringQ) pop() int32 {
	v := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

func (q *ringQ) grow() {
	size := 2 * len(q.buf)
	if size < 8 {
		size = 8
	}
	//lint:ignore hotalloc geometric ring growth, amortized O(1); capacity persists across replays (AllocsPerRun pins the steady state)
	nb := make([]int32, size)
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = nb, 0
}

// classCfg is the run's precomputed service and sprinting configuration.
type classCfg struct {
	service  dist.Dist
	timeout  float64
	speedup  float64
	sprintOn bool
}

// Runner is a reusable simulator instance. Every internal buffer — the
// timeout lane and departure keys, the query pool, the FIFO ring, the
// running set, the RNG and the budget accountant — persists across runs,
// so replaying simulations back to back performs zero steady-state heap
// allocations per simulated query. A Runner is not safe
// for concurrent use; run one per goroutine. The zero value is ready to
// use.
//
// A single-server run draws its sample path up front: its interarrival
// gaps and service times, in the order inline drawing would take them
// from the run's RNG. The policy (timeout, sprint rate, budget, refill,
// discipline) never touches that order, so the Runner keeps the path,
// one per replication index, and a later run of that replication whose
// seed, arrival and service distributions and query count match replays
// it without drawing again. That is the common-random-numbers case of
// calibration's bisection and of the timeout searches, which re-evaluate
// the same replications under many policies. Runs with a dispatcher,
// whose picks may draw from the same RNG between arrivals, and runs over
// a stateful or uncatalogued distribution draw inline.
type Runner struct {
	// The pending events: the next arrival and the budget interrupt
	// (sim.Never when unset), the timeouts' lane, and the departures,
	// one per running query in deps (in no order; step scans them) or,
	// under processor sharing, one per server in psDep.
	clk      sim.Clock
	arriveEv sim.Key
	budgetEv sim.Key
	lane     sim.Lane
	deps     []depEntry

	rng  dist.RNG
	acct sprint.Accountant

	pool       []query
	qfree      []int32
	running    []int32 // in dispatch order
	qlive      int
	qHighWater int

	// Per-server state, sized by sizeServers: the FIFO rings (unordered
	// disciplines), ready heaps (ordered disciplines), free execution
	// slots, resident-query counts, and PS's pending departure and
	// current sharing rate. All capacity persists across runs.
	queues  []ringQ
	heaps   []qHeap
	srvFree []int32
	srvLive []int32
	psDep   []depEntry
	psRate  []float64

	// arrival-distribution cache: repeated runs with the same
	// (ArrivalKind, ArrivalRate) and no explicit Arrival reuse one
	// boxed distribution instead of rebuilding it per run.
	arrKind   dist.Kind
	arrRate   float64
	arrCached dist.Dist

	// SERPT prediction-noise cache: one boxed lognormal per CV, drawn
	// from its own RNG stream so the main draw sequence (arrivals,
	// services) is identical across disciplines.
	predCV   float64
	predDist dist.Dist
	predRNG  dist.RNG

	arr dist.Dist
	cls classCfg
	tr  obs.QueryTracer

	// Sample paths (see preparePath): paths[i] holds replication i's,
	// path is the one the current run replays (nil: it draws inline),
	// and key is scratch for the current run's path encoding.
	paths []samplePath
	path  *samplePath
	key   []byte

	disc     Discipline
	ordered  bool // heap-ordered ready queue (lifo/srpt/serpt)
	preempt  bool // preemptive discipline (srpt/serpt)
	servers  int
	slotsPer int
	dispatch Dispatcher
	dstate   DispatchState

	warmup      int
	total       int
	arrived     int
	engages     int
	exhaustions int
	preempts    int
	exhausted   bool

	res *Result

	// Predict's serial path replays into predRes and pools every
	// replication's response times into pooledRTs; both keep their
	// capacity across predictions.
	predRes   Result
	pooledRTs []float64
}

// depEntry is a pending departure: its key and the query.
type depEntry struct {
	key sim.Key
	qi  int32
}

// samplePath is a single-server run's pre-drawn interarrival gaps and
// service times, indexed by query, and the encoded (seed, query count,
// arrival, service) they were drawn for; key is empty while the buffers
// hold no complete path.
type samplePath struct {
	key        []byte
	gaps, svcs []float64
}

// NewRunner returns an empty reusable runner.
func NewRunner() *Runner { return &Runner{} }

// runnerPool recycles Runners across the package-level entry points (Run,
// RunReps, Predict), so sweep batches and calibration searches
// reuse warmed slabs across tasks. Pool reuse only affects buffer
// capacity, never results: every run fully reinitializes the runner from
// its Params.
var runnerPool = sync.Pool{New: func() any { return NewRunner() }}

func getRunner() *Runner  { return runnerPool.Get().(*Runner) }
func putRunner(r *Runner) { runnerPool.Put(r) }

// resetCore reinitializes the clock, the pending events and every pooled
// buffer, keeping capacity.
func (r *Runner) resetCore() {
	r.clk.Reset()
	r.arriveEv = sim.Never
	r.budgetEv = sim.Never
	r.lane.Reset()
	r.deps = r.deps[:0]
	r.pool = r.pool[:0]
	r.qfree = r.qfree[:0]
	r.running = r.running[:0]
	r.qlive = 0
	r.qHighWater = 0
	r.arrived = 0
	r.engages = 0
	r.exhaustions = 0
	r.preempts = 0
	r.exhausted = false
}

// configureDiscipline installs the run's discipline, server count and
// dispatcher, sizing (capacity-preserving) and resetting every per-server
// buffer. slots is the per-server slot count; callers pass defaults-applied
// values.
func (r *Runner) configureDiscipline(d Discipline, servers, slots int, dispatch Dispatcher, seed uint64) {
	r.disc = d
	r.ordered = d.Kind == DiscLIFO || d.Kind == DiscSRPT || d.Kind == DiscSERPT
	r.preempt = d.Kind == DiscSRPT || d.Kind == DiscSERPT
	r.servers = servers
	r.slotsPer = slots
	r.dispatch = nil
	if servers > 1 {
		r.dispatch = dispatch
	}
	r.dstate = DispatchState{RNG: &r.rng}
	for len(r.queues) < servers {
		r.queues = append(r.queues, ringQ{})
		r.heaps = append(r.heaps, qHeap{})
		r.srvFree = append(r.srvFree, 0)
		r.srvLive = append(r.srvLive, 0)
		r.psDep = append(r.psDep, depEntry{})
		r.psRate = append(r.psRate, 1)
	}
	for s := 0; s < servers; s++ {
		r.queues[s].reset()
		r.heaps[s].reset()
		r.srvFree[s] = int32(slots)
		r.srvLive[s] = 0
		r.psDep[s].key = sim.Never
		r.psRate[s] = 1
	}
	if d.Kind == DiscSERPT {
		r.predRNG.Reseed(seed ^ serptSeedSalt)
		cv := d.PredictCV
		if cv <= 0 {
			r.predDist = nil
			//lint:ignore floateq the noise cache key must match the CV exactly; a near-match would silently change the prediction process
		} else if r.predDist == nil || r.predCV != cv {
			r.predDist = dist.LogNormalFromMeanCV(1, cv)
			r.predCV = cv
		}
	}
}

// serptSeedSalt separates SERPT's prediction-noise stream from the run's
// main RNG, so the arrival/service draw sequence is identical across
// disciplines ("SERP" in ASCII, extended to 64 bits).
const serptSeedSalt = 0x53455250_9e3779b9

// arrivalFor resolves the interarrival distribution, reusing the cached
// boxed value when the family and rate are unchanged from the last run.
func (r *Runner) arrivalFor(p Params) dist.Dist {
	if p.Arrival != nil {
		return p.Arrival
	}
	//lint:ignore floateq the cache key must match the rate exactly; a near-match would silently change the arrival process
	if r.arrCached != nil && r.arrKind == p.ArrivalKind && r.arrRate == p.ArrivalRate {
		return r.arrCached
	}
	d := dist.ForRate(p.ArrivalKind, p.ArrivalRate)
	r.arrKind, r.arrRate, r.arrCached = p.ArrivalKind, p.ArrivalRate, d
	return d
}

// sizedFloats returns s emptied for appending n values without growth.
func sizedFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		//lint:ignore hotalloc first-run sizing; steady-state replay takes the capacity-reuse branch below
		return make([]float64, 0, n)
	}
	return s[:0]
}

// Run simulates p, writing the result into out. Slices already present in
// out are reused (truncated and appended in place) when their capacity
// suffices, so a caller replaying simulations with one Runner and one
// Result allocates nothing in steady state. On error out is untouched.
//
//sprint:hotpath steady-state replay must not allocate (TestRunnerRunIntoAllocFree)
func (r *Runner) RunInto(p Params, out *Result) error { return r.runRep(p, 0, out) }

// runRep is RunInto for replication rep, whose sample path the Runner
// keeps in its own slot.
func (r *Runner) runRep(p Params, rep int, out *Result) error {
	if err := p.validate(); err != nil {
		return err
	}
	p = p.withDefaults()
	total := p.NumQueries + p.Warmup
	if total == 0 {
		*out = Result{}
		return nil
	}
	r.resetCore()
	r.rng.Reseed(p.Seed)
	r.arr = r.arrivalFor(p)
	r.acct.ResetFor(p.budget())
	r.tr = p.Tracer
	r.cls = classCfg{
		service:  p.Service,
		timeout:  p.Timeout,
		speedup:  p.speedup(),
		sprintOn: p.sprintingEnabled(),
	}
	r.configureDiscipline(p.Discipline, p.Servers, p.Slots, p.Dispatch, p.Seed)
	r.warmup = p.Warmup
	r.total = total
	r.preparePath(p, rep)

	out.RTs = sizedFloats(out.RTs, p.NumQueries)
	out.QueueingTimes = sizedFloats(out.QueueingTimes, p.NumQueries)
	out.SprintedCount = 0
	out.SprintSeconds = 0
	out.Duration = 0
	out.Engages = 0
	out.Exhaustions = 0
	out.Preemptions = 0
	out.MaxLive = 0
	r.res = out

	r.arriveEv = r.clk.At(r.gap(0))
	clk := obs.ClockOr(p.Clock)
	start := clk.Now()
	fired := 0
	for r.step() {
		fired++
	}
	out.Engages = r.engages
	out.Exhaustions = r.exhaustions
	out.Preemptions = r.preempts
	out.MaxLive = r.qHighWater
	flushMetrics(total, fired, r.engages, r.exhaustions, clk.Now().Sub(start).Seconds())
	r.res = nil
	return nil
}

// preparePath decides whether this run replays a sample path and, when
// replication rep's slot does not already hold the one it needs, draws
// it there: the first gap, then for each query its service time and the
// next gap, exactly as arrive would draw them inline. Call it after the
// RNG is reseeded and the arrival distribution, server count and total
// are set.
func (r *Runner) preparePath(p Params, rep int) {
	r.path = nil
	if r.servers != 1 || stateful(r.arr) || stateful(p.Service) {
		return
	}
	k := binary.LittleEndian.AppendUint64(r.key[:0], p.Seed)
	k = binary.LittleEndian.AppendUint64(k, uint64(r.total))
	var err error
	if p.Arrival == nil {
		k = dist.AppendCanonForRate(k, p.ArrivalKind, p.ArrivalRate)
	} else if k, err = dist.AppendCanon(k, p.Arrival); err != nil {
		return
	}
	if k, err = dist.AppendCanon(k, p.Service); err != nil {
		return
	}
	r.key = k
	for len(r.paths) <= rep {
		r.paths = append(r.paths, samplePath{})
	}
	sp := &r.paths[rep]
	r.path = sp
	if bytes.Equal(k, sp.key) {
		return
	}
	sp.key = sp.key[:0] // the buffers are about to hold another path
	sp.gaps = sizedFloats(sp.gaps, r.total)
	sp.svcs = sizedFloats(sp.svcs, r.total)
	sp.gaps = append(sp.gaps, r.arr.Sample(&r.rng))
	for i := 0; i < r.total; i++ {
		sp.svcs = append(sp.svcs, p.Service.Sample(&r.rng))
		if i+1 < r.total {
			sp.gaps = append(sp.gaps, r.arr.Sample(&r.rng))
		}
	}
	sp.key = append(sp.key, k...)
}

// stateful reports whether d's samples depend on earlier samples beyond
// the RNG (a dist.Sequence's cursor persists across runs), so a replayed
// path would leave d behind where inline drawing would have moved it.
func stateful(d dist.Dist) bool {
	switch v := d.(type) {
	case *dist.Sequence:
		return true
	case dist.Scaled:
		return stateful(v.Base)
	}
	return false
}

// gap returns the interarrival gap before query i, from the sample path
// or drawn.
func (r *Runner) gap(i int) float64 {
	if r.path != nil {
		return r.path.gaps[i]
	}
	return r.arr.Sample(&r.rng)
}

// serviceTime returns query i's service time, from the sample path or
// drawn.
func (r *Runner) serviceTime(i int) float64 {
	if r.path != nil {
		return r.path.svcs[i]
	}
	return r.cls.service.Sample(&r.rng)
}

// Run simulates p on this runner and returns a freshly allocated result.
func (r *Runner) Run(p Params) (*Result, error) {
	res := &Result{}
	if err := r.RunInto(p, res); err != nil {
		return nil, err
	}
	return res, nil
}

// Run simulates the configured queue and returns measured response times.
func Run(p Params) (*Result, error) {
	r := getRunner()
	defer putRunner(r)
	return r.Run(p)
}

// MustRun is Run for static parameters; it panics on error.
func MustRun(p Params) *Result {
	r, err := Run(p)
	if err != nil {
		panic(err)
	}
	return r
}

// RunReps runs reps serial replications of p on one reusable runner,
// deriving replication i's seed as Seed + i*seedStride — exactly the
// common-random-numbers derivation Predict uses — and returns the
// per-replication results. Only the returned Result slice (and, on the
// first use of each slot, its vectors) is freshly allocated; callers
// that keep the slice across calls should use RunRepsInto, which
// reaches zero steady-state allocations.
func RunReps(p Params, reps int) ([]Result, error) {
	if reps <= 0 {
		reps = 1
	}
	out := make([]Result, reps)
	if err := RunRepsInto(p, out); err != nil {
		return nil, err
	}
	return out, nil
}

// RunRepsInto is RunReps writing replication i into out[i], reusing
// each slot's RTs/QueueingTimes capacity. One pooled runner serves all
// replications, so a caller holding the slice across calls runs entire
// multi-replication predictions with zero steady-state allocations —
// for every discipline, including the heap-ordered ones.
func RunRepsInto(p Params, out []Result) error {
	if err := p.validate(); err != nil {
		return err
	}
	if len(out) == 0 {
		return fmt.Errorf("queuesim: RunRepsInto needs at least one output slot")
	}
	r := getRunner()
	defer putRunner(r)
	for i := range out {
		pi := p
		pi.Seed = repSeed(p.Seed, i)
		if err := r.runRep(pi, i, &out[i]); err != nil {
			return err
		}
	}
	return nil
}

// The event kinds step fires.
const (
	evNone = iota
	evArrive
	evBudget
	evTimeout
	evDepart
	evPSDepart
)

// step fires the earliest pending event by (time, seq), clearing its
// field before its handler runs, and reports false once none is left.
//
//sprint:hotpath event dispatch fires millions of times per run (BenchmarkSimRunInto)
func (r *Runner) step() bool {
	next, kind, at := sim.Never, evNone, 0
	if r.arriveEv.Before(next) {
		next, kind = r.arriveEv, evArrive
	}
	if r.budgetEv.Before(next) {
		next, kind = r.budgetEv, evBudget
	}
	if r.lane.Len() > 0 {
		if f := r.lane.Front(); f.Before(next) {
			next, kind = f.Key, evTimeout
		}
	}
	if r.disc.Kind == DiscPS {
		for s := range r.psDep[:r.servers] {
			if r.psDep[s].key.Before(next) {
				next, kind, at = r.psDep[s].key, evPSDepart, s
			}
		}
	} else {
		for i := range r.deps {
			if r.deps[i].key.Before(next) {
				next, kind, at = r.deps[i].key, evDepart, i
			}
		}
	}
	if kind == evNone {
		return false
	}
	r.clk.Fire(next)
	switch kind {
	case evArrive:
		r.arriveEv = sim.Never
		r.arrive()
	case evBudget:
		r.budgetEv = sim.Never
		r.onBudgetEmpty()
	case evTimeout:
		r.onTimeout(r.lane.Pop().Slot)
	case evDepart:
		qi := r.deps[at].qi
		r.undep(qi)
		r.depart(qi)
	default:
		r.psDep[at].key = sim.Never
		r.psDepart(int32(at))
	}
	return true
}

func (r *Runner) arrive() {
	now := r.clk.Now()
	id := r.arrived
	r.arrived++
	qi := r.allocQuery()
	q := &r.pool[qi]
	q.id = int32(id)
	q.arrival = now
	q.service = r.serviceTime(id)
	q.warm = id < r.warmup
	s := int32(0)
	if r.dispatch != nil {
		picked := r.dispatch.Pick(r, &r.dstate)
		if picked < 0 || picked >= r.servers {
			panic("queuesim: dispatcher picked an out-of-range server")
		}
		s = int32(picked)
	}
	q.srv = s
	if r.disc.Kind == DiscSERPT {
		q.pred = q.service
		if r.predDist != nil {
			q.pred = q.service * r.predDist.Sample(&r.predRNG)
		}
	}
	if r.tr != nil {
		r.emit(obs.EvArrival, now, qi, q.service)
		if r.dispatch != nil {
			r.emit(obs.EvDispatch, now, qi, float64(s))
		}
	}
	r.srvLive[s]++
	if r.disc.Kind != DiscPS {
		r.enqueue(s, qi)
	}
	if r.cls.sprintOn {
		r.lane.Push(r.clk.At(now+r.cls.timeout), qi, q.id)
	}
	if r.arrived < r.total {
		r.arriveEv = r.clk.After(r.gap(r.arrived))
	}
	if r.disc.Kind == DiscPS {
		r.psAdmit(s, qi, now)
		return
	}
	if r.preempt && r.srvFree[s] == 0 {
		r.maybePreempt(s, qi)
	}
	r.dispatchSrv(s)
}

// enqueue adds qi to server s's ready queue: the FIFO ring, or the index
// heap keyed by the discipline's ordering (LIFO: most recent first; SRPT:
// true service time; SERPT: noisy prediction).
func (r *Runner) enqueue(s int32, qi int32) {
	if !r.ordered {
		r.queues[s].push(qi)
		return
	}
	q := &r.pool[qi]
	switch r.disc.Kind {
	case DiscLIFO:
		q.key = -q.arrival
		q.tie = -q.id
	case DiscSERPT:
		q.key = q.pred
		q.tie = q.id
	default: // SRPT
		q.key = q.service
		q.tie = q.id
	}
	r.hpush(&r.heaps[s], qi)
}

// readyLen returns the number of queries waiting at server s.
func (r *Runner) readyLen(s int32) int {
	if r.ordered {
		return len(r.heaps[s].idx)
	}
	return r.queues[s].len()
}

// readyPop removes and returns the next query at server s per the
// discipline's order.
func (r *Runner) readyPop(s int32) int32 {
	if r.ordered {
		return r.hpop(&r.heaps[s])
	}
	return r.queues[s].pop()
}

// dispatchSrv moves queries from server s's ready queue into its free
// slots. First dispatch of a query starts its service clock; a resumed
// query keeps its progress (tau) and its original start time.
func (r *Runner) dispatchSrv(s int32) {
	now := r.clk.Now()
	for r.srvFree[s] > 0 && r.readyLen(s) > 0 {
		qi := r.readyPop(s)
		r.srvFree[s]--
		q := &r.pool[qi]
		q.running = true
		q.seg = now
		fresh := !q.started
		if fresh {
			q.started = true
			q.start = now
			q.tau = 0
		}
		r.running = append(r.running, qi)
		if r.tr != nil {
			if fresh {
				r.emit(obs.EvServiceStart, now, qi, now-q.arrival)
			} else {
				r.emit(obs.EvResume, now, qi, (1-q.tau)*q.service)
			}
		}
		// A query that sprints from dispatch has its departure scheduled
		// once, at the sprinted time.
		q.dep = int32(len(r.deps))
		if q.pending && r.acct.CanSprint(now) {
			r.deps = append(r.deps, depEntry{key: r.clk.At(r.engage(qi)), qi: qi})
			r.replanBudget()
		} else {
			r.deps = append(r.deps, depEntry{key: r.clk.At(now + (1-q.tau)*q.service), qi: qi})
		}
	}
}

// liveKey returns q's current ready-queue key: remaining true work for
// SRPT, remaining predicted work for SERPT, progress rolled to now.
func (r *Runner) liveKey(q *query, now float64) float64 {
	rem := 1 - r.progress(q, now)
	if r.disc.Kind == DiscSERPT {
		return rem * q.pred
	}
	return rem * q.service
}

// maybePreempt displaces the running query at server s with the most
// remaining work if the newly queued query newQi has strictly less —
// SRPT/SERPT's preemption rule. Ties never preempt (no churn).
func (r *Runner) maybePreempt(s int32, newQi int32) {
	now := r.clk.Now()
	worst := r.pool[newQi].key
	victim := int32(-1)
	for _, ri := range r.running {
		q := &r.pool[ri]
		if q.srv != s {
			continue
		}
		if rem := r.liveKey(q, now); rem > worst {
			worst = rem
			victim = ri
		}
	}
	if victim < 0 {
		return
	}
	r.preemptQuery(victim, worst, now)
}

// preemptQuery suspends a running query mid-service: progress is rolled
// forward, any active sprint is stopped (its seconds banked), the query
// leaves the running set with its pending departure and re-enters the
// ready heap keyed by its remaining work. A query whose timeout already
// fired re-arms pending so it re-engages on resume if budget allows.
func (r *Runner) preemptQuery(qi int32, key float64, now float64) {
	q := &r.pool[qi]
	q.tau = r.progress(q, now)
	q.seg = now
	if q.sprint {
		r.acct.StopSprint(now)
		q.sprint = false
		r.res.SprintSeconds += now - q.sprintStart
		if r.tr != nil {
			r.emit(obs.EvSprintStop, now, qi, now-q.sprintStart)
		}
		r.replanBudget()
	}
	if r.tr != nil {
		r.emit(obs.EvPreempt, now, qi, (1-q.tau)*q.service)
	}
	q.running = false
	if q.toFired && r.cls.sprintOn {
		q.pending = true
	}
	r.undep(qi)
	r.unrun(qi)
	r.preempts++
	s := q.srv
	r.srvFree[s]++
	q.key = key
	q.tie = q.id
	r.hpush(&r.heaps[s], qi)
}

// progress rolls q's completed-work fraction forward to now.
func (r *Runner) progress(q *query, now float64) float64 {
	rate := 1.0
	if q.sprint {
		rate = r.cls.speedup
	}
	return min(q.tau+(now-q.seg)*rate/q.service, 1)
}

// unrun removes qi from the running set, keeping the others in dispatch
// order.
func (r *Runner) unrun(qi int32) {
	if n := len(r.running) - 1; r.running[n] == qi {
		r.running = r.running[:n]
		return
	}
	for i, ri := range r.running {
		if ri == qi {
			r.running = append(r.running[:i], r.running[i+1:]...)
			return
		}
	}
}

// undep drops running query qi's departure, moving the last one into
// its place.
func (r *Runner) undep(qi int32) {
	i, n := r.pool[qi].dep, int32(len(r.deps)-1)
	if i != n {
		r.deps[i] = r.deps[n]
		r.pool[r.deps[i].qi].dep = i
	}
	r.deps = r.deps[:n]
}

func (r *Runner) onTimeout(qi int32) {
	now := r.clk.Now()
	q := &r.pool[qi]
	q.toFired = true
	if r.tr != nil {
		r.emit(obs.EvTimeout, now, qi, r.cls.timeout)
	}
	if !q.running {
		q.pending = true
		return
	}
	if !q.sprint && r.acct.CanSprint(now) {
		q.tau = r.progress(q, now)
		q.seg = now
		r.deps[q.dep].key = r.clk.At(r.engage(qi))
		r.replanBudget()
	}
}

// engage applies Equation 1 to query qi from its current (tau, seg): the
// remaining execution shrinks by mu/mu_e. It starts the sprint and
// returns the query's sprinted departure time; the caller (re)keys the
// departure there and then replans the budget interrupt, in that order,
// so the two events take their seqs as they always have.
func (r *Runner) engage(qi int32) float64 {
	now := r.clk.Now()
	r.engages++
	q := &r.pool[qi]
	if r.tr != nil {
		level := r.acct.Level(now)
		if r.exhausted {
			r.emit(obs.EvRefill, now, qi, level)
		}
		r.emit(obs.EvSprintStart, now, qi, level)
	}
	r.exhausted = false
	r.acct.StartSprint(now)
	q.sprint = true
	q.sprinted = true
	q.sprintStart = now
	remaining := (1 - q.tau) * q.service / r.cls.speedup
	return now + remaining
}

// replanBudget keys the budget interrupt at the accountant's current
// time-to-empty horizon, or unsets it when the level is not falling.
func (r *Runner) replanBudget() {
	now := r.clk.Now()
	if tte := r.acct.TimeToEmpty(now); math.IsInf(tte, 1) {
		r.budgetEv = sim.Never
	} else {
		r.budgetEv = r.clk.At(now + tte)
	}
}

func (r *Runner) onBudgetEmpty() {
	now := r.clk.Now()
	r.exhaustions++
	r.exhausted = true
	if r.tr != nil {
		active := 0
		for _, qi := range r.running {
			if r.pool[qi].sprint {
				active++
			}
		}
		r.tr.Event(obs.QueryEvent{Type: obs.EvBudgetExhausted, Time: now, Query: -1, Value: float64(active)})
	}
	for _, qi := range r.running {
		q := &r.pool[qi]
		if !q.sprint {
			continue
		}
		q.tau = r.progress(q, now)
		q.seg = now
		r.acct.StopSprint(now)
		q.sprint = false
		r.res.SprintSeconds += now - q.sprintStart
		if r.tr != nil {
			r.emit(obs.EvSprintStop, now, qi, now-q.sprintStart)
		}
		remaining := (1 - q.tau) * q.service
		r.deps[q.dep].key = r.clk.At(now + remaining)
	}
	r.replanBudget()
}

func (r *Runner) depart(qi int32) {
	now := r.clk.Now()
	r.res.Duration = now
	q := &r.pool[qi]
	if q.sprint {
		r.acct.StopSprint(now)
		q.sprint = false
		r.res.SprintSeconds += now - q.sprintStart
		if r.tr != nil {
			r.emit(obs.EvSprintStop, now, qi, now-q.sprintStart)
		}
		r.replanBudget()
	}
	if r.tr != nil {
		r.emit(obs.EvDeparture, now, qi, now-q.arrival)
	}
	r.lane.Cancel(qi)
	r.unrun(qi)
	q.running = false
	if !q.warm {
		r.res.RTs = append(r.res.RTs, now-q.arrival)
		r.res.QueueingTimes = append(r.res.QueueingTimes, q.start-q.arrival)
		if q.sprinted {
			r.res.SprintedCount++
		}
	}
	s := q.srv
	r.srvFree[s]++
	r.srvLive[s]--
	r.freeQuery(qi)
	r.dispatchSrv(s)
}

// emit sends one lifecycle event; callers guard on r.tr != nil.
func (r *Runner) emit(typ obs.EventType, now float64, qi int32, value float64) {
	q := &r.pool[qi]
	r.tr.Event(obs.QueryEvent{Type: typ, Time: now, Query: int(q.id), Value: value})
}

// allocQuery takes a slot from the pool, recycling freed indices before
// growing the slab, and tracks the live high-water mark.
func (r *Runner) allocQuery() int32 {
	var qi int32
	if n := len(r.qfree); n > 0 {
		qi = r.qfree[n-1]
		r.qfree = r.qfree[:n-1]
		r.pool[qi] = query{}
	} else {
		r.pool = append(r.pool, query{})
		qi = int32(len(r.pool) - 1)
	}
	r.qlive++
	if r.qlive > r.qHighWater {
		r.qHighWater = r.qlive
	}
	return qi
}

// freeQuery returns a departed query's slot to the pool.
func (r *Runner) freeQuery(qi int32) {
	r.qfree = append(r.qfree, qi)
	r.qlive--
}

// Prediction summarises replicated simulations of one scenario.
type Prediction struct {
	MeanRT float64
	P95RT  float64
	P99RT  float64
	// Replications and QueriesSimulated record the prediction's cost.
	Replications     int
	QueriesSimulated int
}

// Predict runs reps independent replications and pools their response
// times. This is the prediction primitive behind Figure 11's throughput
// study, which gets its parallelism from the sweep engine running many
// predictions at once. Each replication's seed depends only on its
// index, and the pooled Runner owns the replay result and the pooled
// response-time buffer, so a steady-state prediction allocates nothing.
func Predict(p Params, reps int) (Prediction, error) {
	if err := p.validate(); err != nil {
		return Prediction{}, err
	}
	if reps <= 0 {
		reps = 1
	}
	r := getRunner()
	defer putRunner(r)
	pooled := r.pooledRTs[:0]
	for i := 0; i < reps; i++ {
		pi := p
		pi.Seed = repSeed(p.Seed, i)
		if err := r.runRep(pi, i, &r.predRes); err != nil {
			return Prediction{}, err
		}
		pooled = append(pooled, r.predRes.RTs...)
	}
	r.pooledRTs = pooled
	return pooledPrediction(pooled, reps), nil
}

// pooledPrediction summarizes the response times of reps replications
// pooled in replication order. The mean sums in that order, before the
// tail selection reorders pooled, so every field equals what
// stats.Summarize reports for the same pool, bit for bit.
func pooledPrediction(pooled []float64, reps int) Prediction {
	mean := stats.Mean(pooled)
	p95, p99 := stats.SelectQuantilePair(pooled, 0.95, 0.99)
	return Prediction{
		MeanRT:           mean,
		P95RT:            p95,
		P99RT:            p99,
		Replications:     reps,
		QueriesSimulated: len(pooled),
	}
}
