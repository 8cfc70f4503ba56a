// Package sweep is the shared policy-space evaluation engine behind every
// loop in this repository that replays the timeout-aware queue simulator
// at scale: the simulated-annealing timeout search (Section 4.2), policy
// comparisons against the big-burst/small-burst/Few-to-Many/Adrenaline
// heuristics (Section 4.3), burstable-instance packing (Section 4.4), the
// calibration bisection (Section 2.3), and the experiment grid sweeps
// (Figures 10-11, simulator validation).
//
// The engine does two things for those callers:
//
//   - Sharding: EvaluateAll spreads a batch of independent
//     (Params, Reps) evaluations across a bounded worker pool. Each task
//     carries its own RNG seed and each result lands at its task's index,
//     so batch output is bit-for-bit identical to the serial order
//     regardless of worker count.
//   - Memoization: completed evaluations are cached in a concurrency-safe
//     LRU keyed by a canonical fingerprint of (Params, Reps). Policy
//     searches revisit points constantly — annealing re-proposes nearby
//     timeouts, packing re-scores baseline plans per workload, bisection
//     re-evaluates bracket edges — and a hit returns the memoized
//     prediction without touching the simulator. In-flight evaluations
//     are single-flight: concurrent requests for one key run it once.
//
// Because the simulator is a deterministic function of its canonicalized
// parameters (enforced by sprintlint's detflow analyzer and the
// differential tests in this package), memoization is semantically
// invisible: a cached sweep reproduces an uncached sweep exactly.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"mdsprint/internal/obs"
	"mdsprint/internal/queuesim"
)

// Task is one evaluation point: a simulator configuration plus the number
// of pooled replications (Predict semantics; 0 means 1).
type Task struct {
	Params queuesim.Params
	Reps   int
}

// DefaultCacheSize bounds the memoization LRU when Options.CacheSize is
// zero. Entries hold a Key and a Prediction (a few floats), so the
// default retains a large sweep's worth of points in well under a
// megabyte.
const DefaultCacheSize = 4096

// TaskHook runs before each batch task's evaluation, outside the
// memoization cache — fault injectors use it to perturb individual
// tasks without their failures ever being memoized. A non-nil return
// fails the task; a panic is recovered and surfaced the same way.
type TaskHook func(index int, t Task) error

// Options configures an Engine.
type Options struct {
	// Workers bounds batch concurrency (0 means NumCPU).
	Workers int
	// CacheSize is the maximum number of memoized evaluations (0 means
	// DefaultCacheSize; negative disables memoization entirely, which
	// the throughput experiments use to time honest evaluations).
	CacheSize int
	// Metrics receives the engine's counters and gauges; nil records
	// into obs.Default().
	Metrics *obs.Registry
	// TaskHook, when set, runs before each batch task (see TaskHook).
	TaskHook TaskHook
}

// Engine evaluates batches of simulator tasks on a worker pool with
// memoization. Engines are safe for concurrent use.
type Engine struct {
	workers int
	cache   *cache // nil when memoization is disabled
	hook    TaskHook

	tasks     atomic.Uint64
	evals     atomic.Uint64
	hits      atomic.Uint64
	misses    atomic.Uint64
	bypasses  atomic.Uint64
	evictions atomic.Uint64
	panics    atomic.Uint64
	canceled  atomic.Uint64

	m engineMetrics
}

// engineMetrics are the obs-registry handles mirrored by the engine's
// local counters (local counters make per-engine tests independent of the
// shared registry).
type engineMetrics struct {
	tasks, evals     *obs.Counter
	hits, misses     *obs.Counter
	bypasses, evicts *obs.Counter
	entries          *obs.Gauge
	batches          *obs.Counter
	batchTasks       *obs.Histogram
	panics           *obs.Counter
	canceled         *obs.Counter
}

// New returns an engine with the given options.
func New(o Options) *Engine {
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	size := o.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	e := &Engine{workers: workers, hook: o.TaskHook}
	if size > 0 {
		e.cache = newCache(size)
	}
	reg := obs.Or(o.Metrics)
	e.m = engineMetrics{
		tasks:      reg.Counter("mdsprint_sweep_tasks_total", "evaluation tasks submitted to the sweep engine"),
		evals:      reg.Counter("mdsprint_sweep_evals_total", "simulator evaluations actually executed (misses + bypasses)"),
		hits:       reg.Counter("mdsprint_sweep_cache_hits_total", "tasks served from the memoization cache"),
		misses:     reg.Counter("mdsprint_sweep_cache_misses_total", "tasks that had to run the simulator and were cached"),
		bypasses:   reg.Counter("mdsprint_sweep_cache_bypass_total", "tasks evaluated uncached (tracer/clock attached, unfingerprintable, or cache disabled)"),
		evicts:     reg.Counter("mdsprint_sweep_cache_evictions_total", "memoized evaluations evicted by the LRU bound"),
		entries:    reg.Gauge("mdsprint_sweep_cache_entries", "memoized evaluations currently retained"),
		batches:    reg.Counter("mdsprint_sweep_batches_total", "EvaluateAll batches started"),
		batchTasks: reg.Histogram("mdsprint_sweep_batch_tasks", "tasks per sweep batch", 0),
		panics:     reg.Counter("mdsprint_sweep_recovered_panics_total", "worker panics recovered and surfaced as task errors"),
		canceled:   reg.Counter("mdsprint_sweep_canceled_tasks_total", "batch tasks abandoned by context cancellation"),
	}
	return e
}

var (
	sharedOnce sync.Once
	sharedEng  *Engine
)

// Shared returns the process-wide engine the internal packages use when
// no explicit engine is supplied. Sharing one engine means the
// calibration search, the policy planners and the experiment sweeps all
// memoize into one pool, so work one layer spends is visible to the
// others.
func Shared() *Engine {
	sharedOnce.Do(func() { sharedEng = New(Options{}) })
	return sharedEng
}

// Or returns e, or the shared engine when e is nil — the helper consumer
// packages use to resolve an optional Engine field.
func Or(e *Engine) *Engine {
	if e != nil {
		return e
	}
	return Shared()
}

// Stats is a point-in-time snapshot of one engine's counters.
type Stats struct {
	// Tasks is every evaluation request; Evals counts the subset that
	// actually ran the simulator (misses plus bypasses).
	Tasks, Evals uint64
	// Hits, Misses and Bypasses partition cacheable traffic; Evictions
	// counts LRU displacements; Entries is the current cache size.
	Hits, Misses, Bypasses, Evictions uint64
	Entries                           int
	// RecoveredPanics counts worker panics recovered into task errors;
	// Canceled counts batch tasks abandoned by context cancellation.
	RecoveredPanics, Canceled uint64
}

// HitRate returns hits / (hits + misses), or 0 before any cacheable
// traffic.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats snapshots the engine's counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Tasks:     e.tasks.Load(),
		Evals:     e.evals.Load(),
		Hits:      e.hits.Load(),
		Misses:    e.misses.Load(),
		Bypasses:  e.bypasses.Load(),
		Evictions: e.evictions.Load(),

		RecoveredPanics: e.panics.Load(),
		Canceled:        e.canceled.Load(),
	}
	if e.cache != nil {
		s.Entries = e.cache.len()
	}
	return s
}

// Lookup reports whether t's result is already memoized, without
// evaluating, waiting, or perturbing the engine's counters. In-flight
// computations, tracer/clock-carrying tasks, unfingerprintable Params
// and memoized failures all report ok=false. The staged estimator
// (internal/tier) uses this as its cache tier: a hit is a finished
// ground-truth answer at lookup cost, a miss falls through to
// simulation instead of blocking behind someone else's evaluation.
func (e *Engine) Lookup(t Task) (queuesim.Prediction, bool) {
	if e.cache == nil || t.Params.Tracer != nil || t.Params.Clock != nil {
		return queuesim.Prediction{}, false
	}
	reps := t.Reps
	if reps <= 0 {
		reps = 1
	}
	key, err := Fingerprint(t.Params, reps)
	if err != nil {
		return queuesim.Prediction{}, false
	}
	en, ok := e.cache.peek(key)
	if !ok || en.err != nil {
		return queuesim.Prediction{}, false
	}
	return en.pred, true
}

// Evaluate runs (or recalls) one task. Tasks whose Params carry a Tracer
// or a Clock bypass the cache: a memoized recall would silently skip
// their side effects (lifecycle events, timed metrics), so observed runs
// are always executed.
func (e *Engine) Evaluate(t Task) (queuesim.Prediction, error) {
	pred, _, err := e.evaluateOutcome(t)
	return pred, err
}

// EvaluateSpan is Evaluate nested under parent as a "sweep.eval" span
// annotated with the cache outcome ("hit"/"miss"/"bypass"). A nil parent
// is exactly Evaluate — callers pass their span through unconditionally.
func (e *Engine) EvaluateSpan(parent *obs.Span, t Task) (queuesim.Prediction, error) {
	if parent == nil {
		return e.Evaluate(t)
	}
	sp := parent.StartChild("sweep.eval")
	sp.SetFloat("timeout_s", t.Params.Timeout)
	pred, outcome, err := e.evaluateOutcome(t)
	sp.SetString("cache", outcome)
	sp.SetError(err)
	sp.End()
	return pred, err
}

// Cache outcomes annotated on sweep spans and returned by
// evaluateOutcome.
const (
	outcomeHit    = "hit"
	outcomeMiss   = "miss"
	outcomeBypass = "bypass"
)

// evaluateOutcome is Evaluate's body, additionally reporting how the
// cache treated the task.
func (e *Engine) evaluateOutcome(t Task) (queuesim.Prediction, string, error) {
	e.tasks.Add(1)
	e.m.tasks.Inc()
	reps := t.Reps
	if reps <= 0 {
		reps = 1
	}
	if e.cache == nil || t.Params.Tracer != nil || t.Params.Clock != nil {
		pred, err := e.bypass(t.Params, reps)
		return pred, outcomeBypass, err
	}
	key, err := Fingerprint(t.Params, reps)
	if err != nil {
		// Unfingerprintable (custom distribution type) or invalid:
		// evaluate uncached and let Predict report the authoritative
		// validation error.
		pred, err := e.bypass(t.Params, reps)
		return pred, outcomeBypass, err
	}
	en, owner, evicted := e.cache.getOrStart(key)
	if evicted > 0 {
		e.evictions.Add(uint64(evicted))
		e.m.evicts.Add(float64(evicted))
	}
	if owner {
		e.misses.Add(1)
		e.m.misses.Inc()
		e.evals.Add(1)
		e.m.evals.Inc()
		pred, err := e.safePredict(t.Params, reps)
		en.finish(pred, err)
		e.m.entries.Set(float64(e.cache.len()))
		return pred, outcomeMiss, err
	}
	e.hits.Add(1)
	e.m.hits.Inc()
	<-en.ready
	return en.pred, outcomeHit, en.err
}

// bypass evaluates uncached.
func (e *Engine) bypass(p queuesim.Params, reps int) (queuesim.Prediction, error) {
	e.bypasses.Add(1)
	e.m.bypasses.Inc()
	e.evals.Add(1)
	e.m.evals.Inc()
	return e.safePredict(p, reps)
}

// safePredict runs the simulator with panic containment: a panic in a
// worker (injected by a chaos hook or escaping a simulator bug) is
// recovered into that task's error instead of killing the pool. The
// single-flight owner still calls finish, so waiters never deadlock on
// a panicked owner.
func (e *Engine) safePredict(p queuesim.Params, reps int) (pred queuesim.Prediction, err error) {
	defer func() {
		if r := recover(); r != nil {
			e.panics.Add(1)
			e.m.panics.Inc()
			pred, err = queuesim.Prediction{}, fmt.Errorf("sweep: recovered panic: %v", r)
		}
	}()
	return queuesim.Predict(p, reps)
}

// runHook invokes the engine's task hook with the same panic
// containment as safePredict.
func (e *Engine) runHook(i int, t Task) (err error) {
	defer func() {
		if r := recover(); r != nil {
			e.panics.Add(1)
			e.m.panics.Inc()
			err = fmt.Errorf("sweep: recovered panic: %v", r)
		}
	}()
	return e.hook(i, t)
}

// runTask is one batch task: hook (if any), then evaluation. When the
// batch is traced, each task gets a "sweep.task" child span annotated
// with the worker that ran it and the cache outcome.
func (e *Engine) runTask(parent *obs.Span, worker, i int, t Task) (queuesim.Prediction, error) {
	sp := parent.StartChild("sweep.task")
	sp.SetInt("index", int64(i))
	sp.SetInt("worker", int64(worker))
	sp.SetFloat("timeout_s", t.Params.Timeout)
	if e.hook != nil {
		if err := e.runHook(i, t); err != nil {
			sp.SetError(err)
			sp.End()
			return queuesim.Prediction{}, err
		}
	}
	pred, outcome, err := e.evaluateOutcome(t)
	sp.SetString("cache", outcome)
	sp.SetError(err)
	sp.End()
	return pred, err
}

// EvaluateAll shards the batch across the worker pool and blocks for the
// predictions in task order. Each replication inside a task runs
// serially, so parallelism lives at task granularity and a task's result
// never depends on pool size. Once ctx is done, remaining tasks are
// abandoned with ctx's error (already-running simulations finish their
// point); a nil ctx never cancels. The error (if any) is the
// lowest-indexed task's, so a failing batch reports deterministically
// regardless of scheduling; the returned slice is still fully populated
// for the tasks that succeeded.
func (e *Engine) EvaluateAll(ctx context.Context, tasks []Task) ([]queuesim.Prediction, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.m.batches.Inc()
	e.m.batchTasks.Observe(float64(len(tasks)))
	sp := obs.StartSpanCtx(ctx, "sweep.batch")
	sp.SetInt("tasks", int64(len(tasks)))
	preds := make([]queuesim.Prediction, len(tasks))
	errs := make([]error, len(tasks))
	workers := min(e.workers, len(tasks))
	if workers < 1 {
		workers = 1
	}
	sp.SetInt("workers", int64(workers))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range idx {
				if err := ctx.Err(); err != nil {
					e.canceled.Add(1)
					e.m.canceled.Inc()
					errs[i] = err
					continue
				}
				preds[i], errs[i] = e.runTask(sp, w, i, tasks[i])
			}
		}(w)
	}
	for i := range tasks {
		idx <- i
	}
	close(idx)
	wg.Wait()
	sp.End()
	for i, err := range errs {
		if err != nil {
			return preds, fmt.Errorf("sweep: task %d: %w", i, err)
		}
	}
	return preds, nil
}

// MeanRTs is EvaluateAll reduced to each task's mean response time — the
// shape policy searches score candidates with.
func (e *Engine) MeanRTs(tasks []Task) ([]float64, error) {
	preds, err := e.EvaluateAll(context.TODO(), tasks)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(preds))
	for i, p := range preds {
		out[i] = p.MeanRT
	}
	return out, nil
}
