package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mdsprint/internal/fault"
	"mdsprint/internal/obs"
	"mdsprint/internal/online"
	"mdsprint/internal/profiler"
	"mdsprint/internal/sweep"
	"mdsprint/internal/tier"
)

// Shedding verdicts. Each maps to one HTTP answer: a full queue is the
// tenant's own backpressure (429, retry soon), everything else is the
// server protecting itself (503).
var (
	// ErrQueueFull means the tenant's admission queue is at capacity.
	ErrQueueFull = errors.New("server: tenant queue full")
	// ErrStalled means the tenant's worker has been stuck inside one
	// operation longer than the stall budget — likely a wedged model.
	ErrStalled = errors.New("server: tenant stalled")
	// ErrDraining means the tenant is shutting down or being reloaded.
	ErrDraining = errors.New("server: tenant draining")
	// ErrStopped means the tenant's worker has exited.
	ErrStopped = errors.New("server: tenant stopped")
	// ErrDeadline means the request's deadline expired while queued.
	ErrDeadline = errors.New("server: deadline expired in queue")
)

// TenantConfig declares one tenant: its synthetic workload surface,
// its controller tuning, and its robustness budgets. The zero values
// of the tuning fields take the documented defaults; newTenant rejects
// negative or non-finite values and oversized queues and ledgers.
type TenantConfig struct {
	// Name routes requests; required and unique per server.
	Name string `json:"name"`
	// ServiceRate, SprintGain and SweetTimeout shape the tenant's
	// ground-truth surface (defaults online.DefaultServiceRate,
	// DefaultSprintGain and DefaultSweetTimeout) — each tenant is its
	// own independently calibrated workload.
	ServiceRate  float64 `json:"service_rate"`
	SprintGain   float64 `json:"sprint_gain"`
	SweetTimeout float64 `json:"sweet_timeout"`
	// MaxTimeout, AnnealIter, Seed and RetuneThreshold tune the tenant's
	// controllers (defaults online.DefaultMaxTimeout, DefaultAnnealIter,
	// a per-name hash and the controller's 0.15).
	MaxTimeout      float64 `json:"max_timeout"`
	AnnealIter      int     `json:"anneal_iter"`
	Seed            uint64  `json:"seed"`
	RetuneThreshold float64 `json:"retune_threshold"`
	// QueueDepth bounds the admission queue (default 64): the bulkhead
	// between a slow tenant and the process's memory.
	QueueDepth int `json:"queue_depth"`
	// LedgerCap bounds the in-memory decision ledger ring (default 4096).
	LedgerCap int `json:"ledger_cap"`
	// TierSpec, when non-empty, routes the tenant's model queries
	// through a staged tier estimator built over a per-tenant sweep
	// engine (see tier.ParseTierSpec; e.g. "bound=0.1"). Each decision
	// then records which ladder tier dominated its queries, and the
	// tenant's registry carries the mdsprint_tier_* metrics. Empty
	// disables tiering (today's behavior).
	TierSpec string `json:"tier_spec,omitempty"`
	// StallAfter is how long one operation may run before the tenant is
	// declared stalled and sheds instead of queueing (default 2s).
	StallAfter time.Duration `json:"stall_after"`
	// Watchdog tunes the degradation watchdogs (zero values take the
	// watchdog defaults).
	Watchdog online.WatchdogConfig `json:"-"`
}

// Upper bounds on the tenant config fields that size allocations: the
// admission queue and the decision ledger ring are allocated up front.
const (
	maxQueueDepth = 1 << 14
	maxLedgerCap  = 1 << 20
)

// validate rejects field values no tenant may run with. A zero field is
// an omitted one and takes its default; a negative or non-finite one is
// an error, as is a queue or ledger beyond its cap.
func (c TenantConfig) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"service_rate", c.ServiceRate},
		{"sprint_gain", c.SprintGain},
		{"sweet_timeout", c.SweetTimeout},
		{"max_timeout", c.MaxTimeout},
		{"retune_threshold", c.RetuneThreshold},
	} {
		if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("server: tenant %s: %s %v must be finite and non-negative", c.Name, f.name, f.v)
		}
	}
	switch {
	case c.StallAfter < 0:
		return fmt.Errorf("server: tenant %s: stall_after %v is negative", c.Name, c.StallAfter)
	case c.AnnealIter < 0:
		return fmt.Errorf("server: tenant %s: anneal_iter %d is negative", c.Name, c.AnnealIter)
	case c.QueueDepth < 0 || c.QueueDepth > maxQueueDepth:
		return fmt.Errorf("server: tenant %s: queue_depth %d out of range [0, %d]", c.Name, c.QueueDepth, maxQueueDepth)
	case c.LedgerCap < 0 || c.LedgerCap > maxLedgerCap:
		return fmt.Errorf("server: tenant %s: ledger_cap %d out of range [0, %d]", c.Name, c.LedgerCap, maxLedgerCap)
	}
	return nil
}

func (c TenantConfig) withDefaults() TenantConfig {
	if c.ServiceRate <= 0 {
		c.ServiceRate = online.DefaultServiceRate
	}
	if c.SprintGain <= 0 {
		c.SprintGain = online.DefaultSprintGain
	}
	if c.SweetTimeout <= 0 {
		c.SweetTimeout = online.DefaultSweetTimeout
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = online.DefaultMaxTimeout
	}
	if c.AnnealIter <= 0 {
		c.AnnealIter = online.DefaultAnnealIter
	}
	if c.Seed == 0 {
		// Distinct deterministic seeds per tenant name.
		h := uint64(14695981039346656037)
		for i := 0; i < len(c.Name); i++ {
			h ^= uint64(c.Name[i])
			h *= 1099511628211
		}
		c.Seed = h | 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.LedgerCap <= 0 {
		c.LedgerCap = 4096
	}
	if c.StallAfter <= 0 {
		c.StallAfter = 2 * time.Second
	}
	return c
}

// opKind selects what a queued operation does.
type opKind int

const (
	opDecide opKind = iota
	opObserve
	opState
)

// op is one unit of tenant work. Ops rendezvous through the admission
// queue to the single worker goroutine that owns the controller; the
// ready channel (capacity 1, so the worker never blocks on a departed
// caller) carries completion. Ops are pooled — an op is returned to
// the pool only by a caller that actually received its completion, so
// an abandoned op is simply garbage, never reused while in flight.
type op struct {
	kind     opKind
	ctx      context.Context
	rate     float64
	observed float64

	timeout float64
	level   online.Level
	state   TenantSnapshot
	err     error
	ready   chan struct{}
}

// tenantMetrics are the serving-plane counters, scoped to the tenant's
// own registry next to its controller metrics.
type tenantMetrics struct {
	decideOK  *obs.Counter
	decideErr *obs.Counter
	observes  *obs.Counter
	panics    *obs.Counter
	shedFull  *obs.Counter
	shedLate  *obs.Counter
}

// tenant is one isolated serving unit: its own model chain, fallback
// controller, breaker, ledger and metrics registry, owned by a single
// worker goroutine. The bounded queue in front of the worker is both
// the admission-control point and the bulkhead: a misbehaving tenant
// fills its own queue and sheds its own load, and nothing else.
type tenant struct {
	cfg      TenantConfig
	reg      *obs.Registry
	fc       *online.FallbackController
	breaker  *fault.Breaker
	ledger   *online.DecisionLedger
	primary  *online.SurfaceModel
	fallback *online.SurfaceModel
	tiers    *tier.Estimator // nil unless TierSpec is configured

	queue    chan *op
	stopC    chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	draining atomic.Bool
	busyAt   atomic.Int64 // start of the op in progress (unix nanos); 0 idle

	pool sync.Pool
	m    tenantMetrics
}

// newTenant builds a tenant with its worker not yet started: the queue
// accepts (and buffers) work immediately, which is what lets a hot
// reload swap a tenant in, restore state into it, and only then start
// serving — without dropping the requests that arrived in between.
func newTenant(cfg TenantConfig) (*tenant, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("server: tenant needs a name")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	primary := online.NewSurfaceModel(cfg.Name+"-primary", cfg.ServiceRate, cfg.SprintGain, cfg.SweetTimeout)
	fallback := online.NewSurfaceModel(cfg.Name+"-fallback", cfg.ServiceRate, cfg.SprintGain, cfg.SweetTimeout)
	breaker := fault.NewBreaker(fault.BreakerConfig{
		Name: cfg.Name, FailureThreshold: 1, Metrics: reg,
	})
	var est *tier.Estimator
	var eng *sweep.Engine
	if cfg.TierSpec != "" {
		spec, err := tier.ParseTierSpec(cfg.TierSpec)
		if err != nil {
			return nil, fmt.Errorf("server: tenant %s: %w", cfg.Name, err)
		}
		eng = sweep.New(sweep.Options{Workers: 2, Metrics: reg})
		est, err = tier.New(spec, tier.Options{Engine: eng, Metrics: reg})
		if err != nil {
			return nil, fmt.Errorf("server: tenant %s: %w", cfg.Name, err)
		}
		primary.SetTiers(est)
		fallback.SetTiers(est)
	}
	ledger := online.NewBoundedDecisionLedger(cfg.LedgerCap)
	fc, err := online.NewFallbackController(online.FallbackConfig{
		Primary:         primary,
		Fallback:        fallback,
		Dataset:         &profiler.Dataset{ServiceRate: cfg.ServiceRate, MarginalRate: cfg.ServiceRate * (1 + cfg.SprintGain)},
		MaxTimeout:      cfg.MaxTimeout,
		AnnealIter:      cfg.AnnealIter,
		Seed:            cfg.Seed,
		RetuneThreshold: cfg.RetuneThreshold,
		Watchdog:        cfg.Watchdog,
		Breaker:         breaker,
		Metrics:         reg,
		Ledger:          ledger,
		Engine:          eng,
		Tiers:           est,
	})
	if err != nil {
		return nil, fmt.Errorf("server: tenant %s: %w", cfg.Name, err)
	}
	t := &tenant{
		cfg: cfg, reg: reg, fc: fc, breaker: breaker, ledger: ledger,
		primary: primary, fallback: fallback, tiers: est,
		queue: make(chan *op, cfg.QueueDepth),
		stopC: make(chan struct{}),
		done:  make(chan struct{}),
		m: tenantMetrics{
			decideOK:  reg.Counter("mdsprint_serve_decisions_total", "decisions served"),
			decideErr: reg.Counter("mdsprint_serve_decision_errors_total", "decisions that failed"),
			observes:  reg.Counter("mdsprint_serve_observations_total", "observations fed to the watchdogs"),
			panics:    reg.Counter("mdsprint_serve_panics_total", "decision-path panics recovered by the bulkhead"),
			shedFull:  reg.Counter("mdsprint_serve_shed_queue_full_total", "requests shed because the tenant queue was full"),
			shedLate:  reg.Counter("mdsprint_serve_shed_deadline_total", "queued requests dropped because their deadline expired"),
		},
	}
	t.pool.New = func() any { return &op{ready: make(chan struct{}, 1)} }
	return t, nil
}

// start launches the worker. The ctx is the server's lifetime: when it
// ends the worker hard-stops, abandoning queued work (callers observe
// ErrStopped via the done channel).
func (t *tenant) start(ctx context.Context) {
	go t.run(ctx)
}

// run is the worker loop: the only goroutine that ever touches the
// fallback controller, so the controller needs no locking. A stop
// request drains the queue before exiting (graceful); ctx cancellation
// exits immediately (crash-style, what the snapshot is for).
func (t *tenant) run(ctx context.Context) {
	defer close(t.done)
	for {
		select {
		case o := <-t.queue:
			t.serve(o)
		case <-t.stopC:
			for {
				select {
				case o := <-t.queue:
					t.serve(o)
				default:
					return
				}
			}
		case <-ctx.Done():
			return
		}
	}
}

// stop asks the worker to drain and waits for it, bounded by ctx.
func (t *tenant) stop(ctx context.Context) error {
	t.draining.Store(true)
	t.stopOnce.Do(func() { close(t.stopC) })
	select {
	case <-t.done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: tenant %s: drain: %w", t.cfg.Name, ctx.Err())
	}
}

// serve executes one op and signals its caller. The ready channel has
// capacity 1, so a caller that already gave up never blocks the worker.
func (t *tenant) serve(o *op) {
	t.busyAt.Store(time.Now().UnixNano())
	o.err = t.apply(o)
	t.busyAt.Store(0)
	o.ready <- struct{}{}
}

// apply is the op body, with the bulkhead's panic recovery: a panicking
// model costs the tenant a demotion (crashing is worse evidence than
// erring) and fails only this op — never the worker, never the process.
func (t *tenant) apply(o *op) (err error) {
	defer func() {
		if r := recover(); r != nil {
			t.m.panics.Inc()
			t.fc.Demote()
			err = fmt.Errorf("server: tenant %s: recovered decision-path panic: %v", t.cfg.Name, r)
		}
	}()
	if o.ctx != nil {
		if cerr := o.ctx.Err(); cerr != nil {
			t.m.shedLate.Inc()
			return ErrDeadline
		}
	}
	switch o.kind {
	case opDecide:
		to, derr := t.fc.TimeoutCtx(o.ctx, o.rate)
		if derr != nil {
			t.m.decideErr.Inc()
			return derr
		}
		o.timeout = to
		o.level = t.fc.Level()
		t.m.decideOK.Inc()
	case opObserve:
		t.fc.Observe(o.rate, o.observed)
		t.m.observes.Inc()
	case opState:
		demotions, promotions := t.fc.Counts()
		o.state = TenantSnapshot{
			Config:     t.cfg,
			Fallback:   t.fc.State(),
			Breaker:    t.breaker.Snapshot(),
			Ledger:     t.ledger.State(),
			Demotions:  demotions,
			Promotions: promotions,
		}
	}
	return nil
}

// stalled reports whether the worker has been inside one op longer
// than the stall budget.
func (t *tenant) stalled() bool {
	at := t.busyAt.Load()
	return at != 0 && time.Since(time.Unix(0, at)) > t.cfg.StallAfter
}

// submit enqueues an op, shedding instead of blocking: the queue is a
// bulkhead, not a buffer of unbounded patience.
func (t *tenant) submit(o *op) error {
	if t.draining.Load() {
		return ErrDraining
	}
	if t.stalled() {
		return ErrStalled
	}
	select {
	case t.queue <- o:
		return nil
	default:
		t.m.shedFull.Inc()
		return ErrQueueFull
	}
}

// await waits for a submitted op, bounded by the caller's ctx and the
// worker's lifetime. Only a caller that actually rendezvoused returns
// the op to the pool; an abandoned op is left to the collector.
func (t *tenant) await(ctx context.Context, o *op) (ok bool, err error) {
	select {
	case <-o.ready:
		return true, o.err
	case <-ctx.Done():
		return false, ctx.Err()
	case <-t.done:
		return false, ErrStopped
	}
}

// Decide routes one decision through the tenant's worker and returns
// the selected timeout and the tier that answered. Steady-state (a
// cached decision, no faults) this path performs zero allocations.
func (t *tenant) Decide(ctx context.Context, rate float64) (timeout float64, level online.Level, err error) {
	o := t.pool.Get().(*op)
	o.kind, o.ctx, o.rate = opDecide, ctx, rate
	if err := t.submit(o); err != nil {
		t.pool.Put(o)
		return 0, 0, err
	}
	ok, err := t.await(ctx, o)
	if !ok {
		return 0, 0, err
	}
	timeout, level = o.timeout, o.level
	o.ctx = nil
	t.pool.Put(o)
	return timeout, level, err
}

// ObserveRT feeds one observed response time into the tenant's health
// watchdogs, through the same queue as decisions.
func (t *tenant) ObserveRT(ctx context.Context, rate, observed float64) error {
	o := t.pool.Get().(*op)
	o.kind, o.ctx, o.rate, o.observed = opObserve, ctx, rate, observed
	if err := t.submit(o); err != nil {
		t.pool.Put(o)
		return err
	}
	ok, err := t.await(ctx, o)
	if !ok {
		return err
	}
	o.ctx = nil
	t.pool.Put(o)
	return err
}

// Snapshot captures the tenant's full crash-safety state through the
// worker queue, so the capture is consistent with the decision stream.
// After the worker has exited (post-drain) it reads directly — the
// worker is gone, so nothing races.
func (t *tenant) Snapshot(ctx context.Context) (TenantSnapshot, error) {
	select {
	case <-t.done:
		demotions, promotions := t.fc.Counts()
		return TenantSnapshot{
			Config:     t.cfg,
			Fallback:   t.fc.State(),
			Breaker:    t.breaker.Snapshot(),
			Ledger:     t.ledger.State(),
			Demotions:  demotions,
			Promotions: promotions,
		}, nil
	default:
	}
	o := t.pool.Get().(*op)
	o.kind, o.ctx = opState, ctx
	if err := t.submit(o); err != nil && err != ErrDraining {
		t.pool.Put(o)
		return TenantSnapshot{}, err
	} else if err == ErrDraining {
		// Draining still serves queued ops; bypass the admission check so
		// the final pre-exit snapshot can ride the queue.
		select {
		case t.queue <- o:
		default:
			t.pool.Put(o)
			return TenantSnapshot{}, ErrQueueFull
		}
	}
	ok, err := t.await(ctx, o)
	if !ok {
		return TenantSnapshot{}, err
	}
	snap := o.state
	o.ctx, o.state = nil, TenantSnapshot{}
	t.pool.Put(o)
	return snap, err
}

// restore loads a snapshot into a tenant whose worker has not started.
func (t *tenant) restore(snap TenantSnapshot) error {
	if err := t.fc.Restore(snap.Fallback); err != nil {
		return fmt.Errorf("server: tenant %s: %w", t.cfg.Name, err)
	}
	if err := t.breaker.Restore(snap.Breaker); err != nil {
		return fmt.Errorf("server: tenant %s: %w", t.cfg.Name, err)
	}
	if err := t.ledger.Restore(snap.Ledger); err != nil {
		return fmt.Errorf("server: tenant %s: %w", t.cfg.Name, err)
	}
	return nil
}

// Level reads the tenant's degradation level from its metrics registry
// (the worker owns the controller; the gauge is the lock-free view).
func (t *tenant) Level() online.Level {
	lvl, _ := t.reg.Value("mdsprint_online_level")
	return online.Level(int(lvl))
}

// model returns the named fault-injection target.
func (t *tenant) model(which string) (*online.SurfaceModel, error) {
	switch which {
	case "", "primary":
		return t.primary, nil
	case "fallback":
		return t.fallback, nil
	default:
		return nil, fmt.Errorf("server: tenant %s has no model %q (primary, fallback)", t.cfg.Name, which)
	}
}
