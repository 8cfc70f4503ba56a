// Package server is sprintd: a crash-safe, overload-tolerant
// multi-tenant policy-serving daemon over the online degradation
// plane. Each tenant is an isolated bulkhead — its own model chain,
// fallback controller, circuit breaker, decision ledger and metrics
// registry behind a bounded admission queue owned by one worker
// goroutine — so one misbehaving tenant sheds its own load and cannot
// stall, starve or crash the rest. Tenant state snapshots to disk
// periodically and on drain; a restarted daemon restores it and
// continues the decision stream bit-identically (asserted by ledger
// fingerprint chains).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mdsprint/internal/obs"
)

// Options configures a Server. Zero values take the documented
// defaults.
type Options struct {
	// Tenants declares the serving set; at least one is required.
	Tenants []TenantConfig
	// MaxInFlight bounds concurrently admitted requests across all
	// tenants (default 256) — the global overload valve in front of the
	// per-tenant queues.
	MaxInFlight int
	// SnapshotPath, when set, enables crash safety: state is restored
	// from it at startup, persisted every SnapshotEvery (default 5s)
	// and on drain.
	SnapshotPath  string
	SnapshotEvery time.Duration
	// RetryAfter is the hint sent with shed responses (default 1s).
	RetryAfter time.Duration
	// Logf narrates lifecycle events; nil is silent.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 256
	}
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = 5 * time.Second
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// serverMetrics are the daemon-wide counters, kept in their own
// registry so per-tenant registries stay tenant-pure.
type serverMetrics struct {
	requests     *obs.Counter
	shedInFlight *obs.Counter
	shedTenant   *obs.Counter
	snapshots    *obs.Counter
	snapshotErrs *obs.Counter
	reloads      *obs.Counter
}

// Server is the sprintd daemon core: tenant routing, global admission
// control, lifecycle (readiness, drain), snapshots and the HTTP
// surface. The HTTP transport itself (listener, http.Server) belongs
// to the caller; Server is everything behind the handler.
type Server struct {
	opts Options
	reg  *obs.Registry
	m    serverMetrics

	mu      sync.RWMutex
	tenants map[string]*tenant

	sem      chan struct{}
	ready    atomic.Bool
	draining atomic.Bool

	// snapStop/snapDone tie down the periodic snapshot loop so Drain
	// can stop it and wait before writing the final snapshot — no
	// concurrent writer racing the authoritative last state.
	snapStop chan struct{}
	snapDone chan struct{}
	snapOnce sync.Once

	runCtx context.Context
	mux    *http.ServeMux
}

// New builds the tenant set (restoring from the snapshot path when one
// exists), starts the workers and the snapshot loop, and marks the
// server ready. ctx bounds every background goroutine: canceling it is
// the crash-style stop the snapshot protects against — use Drain for
// the graceful path.
func New(ctx context.Context, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if len(opts.Tenants) == 0 {
		return nil, fmt.Errorf("server: need at least one tenant")
	}
	reg := obs.NewRegistry()
	s := &Server{
		opts:    opts,
		reg:     reg,
		tenants: make(map[string]*tenant, len(opts.Tenants)),
		sem:     make(chan struct{}, opts.MaxInFlight),
		runCtx:  ctx,
		m: serverMetrics{
			requests:     reg.Counter("mdsprint_serve_requests_total", "requests admitted past the global valve"),
			shedInFlight: reg.Counter("mdsprint_serve_shed_inflight_total", "requests shed by the global in-flight valve"),
			shedTenant:   reg.Counter("mdsprint_serve_shed_tenant_total", "requests shed by a tenant (queue full, stalled, draining)"),
			snapshots:    reg.Counter("mdsprint_serve_snapshots_total", "state snapshots persisted"),
			snapshotErrs: reg.Counter("mdsprint_serve_snapshot_errors_total", "state snapshots that failed to persist"),
			reloads:      reg.Counter("mdsprint_serve_reloads_total", "hot reloads applied"),
		},
	}

	var restored Snapshot
	haveSnap := false
	if opts.SnapshotPath != "" {
		var err error
		restored, haveSnap, err = ReadSnapshot(opts.SnapshotPath)
		if err != nil {
			return nil, err
		}
	}
	for _, cfg := range opts.Tenants {
		t, err := newTenant(cfg)
		if err != nil {
			return nil, err
		}
		if _, dup := s.tenants[t.cfg.Name]; dup {
			return nil, fmt.Errorf("server: duplicate tenant %q", t.cfg.Name)
		}
		if haveSnap {
			if snap, ok := restored.Tenants[t.cfg.Name]; ok {
				if err := t.restore(snap); err != nil {
					return nil, err
				}
				opts.Logf("server: tenant %s restored at ledger seq %d level %d",
					t.cfg.Name, snap.Ledger.Seq, snap.Fallback.Level)
			}
		}
		s.tenants[t.cfg.Name] = t
	}
	for _, t := range s.tenants {
		t.start(ctx)
	}
	s.snapStop = make(chan struct{})
	s.snapDone = make(chan struct{})
	if opts.SnapshotPath != "" {
		go s.snapshotLoop(ctx)
	} else {
		close(s.snapDone)
	}
	s.buildMux()
	s.ready.Store(true)
	return s, nil
}

// snapshotLoop persists state every SnapshotEvery until ctx ends or
// Drain stops it.
func (s *Server) snapshotLoop(ctx context.Context) {
	defer close(s.snapDone)
	tick := time.NewTicker(s.opts.SnapshotEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.snapStop:
			return
		case <-tick.C:
			if err := s.SnapshotNow(ctx); err != nil {
				s.opts.Logf("server: snapshot: %v", err)
			}
		}
	}
}

// SnapshotNow captures every responsive tenant and persists the result
// atomically. A stalled tenant is skipped (its last captured state
// remains the restore point) rather than wedging the snapshot loop.
func (s *Server) SnapshotNow(ctx context.Context) error {
	if s.opts.SnapshotPath == "" {
		return nil
	}
	snap := Snapshot{Tenants: make(map[string]TenantSnapshot)}
	for _, t := range s.tenantList() {
		cctx, cancel := context.WithTimeout(ctx, s.opts.SnapshotEvery)
		ts, err := t.Snapshot(cctx)
		cancel()
		if err != nil {
			s.opts.Logf("server: snapshot: tenant %s skipped: %v", t.cfg.Name, err)
			continue
		}
		snap.Tenants[t.cfg.Name] = ts
	}
	if len(snap.Tenants) == 0 {
		return fmt.Errorf("server: no tenant could be captured")
	}
	if err := WriteSnapshot(s.opts.SnapshotPath, snap); err != nil {
		s.m.snapshotErrs.Inc()
		return err
	}
	s.m.snapshots.Inc()
	return nil
}

// tenantList returns the tenants sorted by name, for deterministic
// iteration in snapshots, health reports and listings.
func (s *Server) tenantList() []*tenant {
	s.mu.RLock()
	out := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, t)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].cfg.Name < out[j].cfg.Name })
	return out
}

// lookup resolves a tenant by name.
func (s *Server) lookup(name string) (*tenant, bool) {
	s.mu.RLock()
	t, ok := s.tenants[name]
	s.mu.RUnlock()
	return t, ok
}

// Drain is the graceful SIGTERM path: stop admitting, drain every
// tenant's queued work, take the final snapshot. Bounded by ctx.
func (s *Server) Drain(ctx context.Context) error {
	s.ready.Store(false)
	s.draining.Store(true)
	// Stop the periodic snapshotter first and wait it out, so the
	// final snapshot below is the last writer.
	s.snapOnce.Do(func() { close(s.snapStop) })
	<-s.snapDone
	var firstErr error
	for _, t := range s.tenantList() {
		if err := t.stop(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s.opts.SnapshotPath != "" {
		if err := s.SnapshotNow(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.opts.Logf("server: drained")
	return firstErr
}

// Reload hot-swaps the tenant set without dropping requests. For each
// reloaded tenant: build the replacement (worker unstarted — its queue
// accepts and buffers immediately), swap it into the routing map, drain
// the old worker, carry the old state over, then start the new worker
// on the buffered backlog. Tenants absent from the new set are drained
// and removed; new names are added.
func (s *Server) Reload(ctx context.Context, cfgs []TenantConfig) error {
	if len(cfgs) == 0 {
		return fmt.Errorf("server: reload needs at least one tenant")
	}
	fresh := make(map[string]*tenant, len(cfgs))
	for _, cfg := range cfgs {
		t, err := newTenant(cfg)
		if err != nil {
			return err
		}
		if _, dup := fresh[t.cfg.Name]; dup {
			return fmt.Errorf("server: duplicate tenant %q in reload", t.cfg.Name)
		}
		fresh[t.cfg.Name] = t
	}

	s.mu.Lock()
	old := s.tenants
	s.tenants = make(map[string]*tenant, len(fresh))
	for name, t := range fresh {
		s.tenants[name] = t
	}
	s.mu.Unlock()

	var firstErr error
	for name, nt := range fresh {
		ot, existed := old[name]
		if !existed {
			nt.start(s.runCtx)
			continue
		}
		if err := ot.stop(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
		snap, err := ot.Snapshot(ctx) // worker exited: direct read
		if err == nil {
			if rerr := nt.restore(snap); rerr != nil {
				s.opts.Logf("server: reload: tenant %s starts fresh: %v", name, rerr)
			}
		} else if firstErr == nil {
			firstErr = err
		}
		nt.start(s.runCtx)
	}
	for name, ot := range old {
		if _, kept := fresh[name]; !kept {
			if err := ot.stop(ctx); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	s.m.reloads.Inc()
	s.opts.Logf("server: reloaded %d tenant(s)", len(fresh))
	return firstErr
}

// Health aggregates every tenant's degradation health into one
// verdict, with check names prefixed by tenant (so "which tenant is
// hurt" survives aggregation), plus a critical stall check per wedged
// tenant. The JSON shape is obs.Health, so `sprintctl monitor -addr`
// renders it unchanged.
func (s *Server) Health() obs.Health {
	var probs []obs.Problem
	for _, t := range s.tenantList() {
		th := obs.EvaluateHealth(t.reg, obs.HealthThresholds{})
		for _, p := range th.Problems {
			p.Check = t.cfg.Name + "/" + p.Check
			probs = append(probs, p)
		}
		if t.stalled() {
			probs = append(probs, obs.Problem{
				Check: t.cfg.Name + "/tenant-stalled", Severity: obs.SeverityCritical,
				Detail: fmt.Sprintf("worker stuck in one operation beyond the %s stall budget", t.cfg.StallAfter),
				Value:  1, Threshold: 0,
			})
		}
	}
	return obs.Health{Healthy: len(probs) == 0, Problems: probs}
}

// ---- HTTP surface ----

// DecideRequest asks for one policy decision. The arrival-rate
// estimate is the client's (sprintd trusts callers to estimate their
// own load; the chaos harness exercises hostile values), but it must be
// positive: a missing or non-positive rate is answered 400.
type DecideRequest struct {
	Tenant string  `json:"tenant"`
	Rate   float64 `json:"rate"`
}

// DecideResponse is the decision: the sprint timeout to apply and the
// degradation tier that produced it.
type DecideResponse struct {
	Tenant  string  `json:"tenant"`
	Tier    string  `json:"tier"`
	Level   int     `json:"level"`
	Timeout float64 `json:"timeout_s"`
}

// ObserveRequest feeds back one observed mean response time measured
// under the tenant's last decision. Rate and Observed must be positive;
// anything else is answered 400.
type ObserveRequest struct {
	Tenant   string  `json:"tenant"`
	Rate     float64 `json:"rate"`
	Observed float64 `json:"observed_rt"`
}

// TenantStatus is one row of GET /v1/tenants.
type TenantStatus struct {
	Name      string `json:"name"`
	Tier      string `json:"tier"`
	Level     int    `json:"level"`
	Decisions int    `json:"decisions"`
	Stalled   bool   `json:"stalled,omitempty"`
}

// FaultRequest scripts a model fault on a live tenant (test surface).
type FaultRequest struct {
	Tenant string  `json:"tenant"`
	Model  string  `json:"model"` // "primary" (default) or "fallback"
	Mode   string  `json:"mode"`  // bias, fail, panic, delay, clear
	Value  float64 `json:"value"`
}

// ReloadRequest carries a full replacement tenant set.
type ReloadRequest struct {
	Tenants []TenantConfig `json:"tenants"`
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/decide", s.handleDecide)
	mux.HandleFunc("POST /v1/observe", s.handleObserve)
	mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	mux.HandleFunc("POST /v1/reload", s.handleReload)
	mux.HandleFunc("POST /v1/fault", s.handleFault)
	mux.HandleFunc("GET /debug/health", s.handleHealth)
	mux.HandleFunc("GET /debug/ready", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
}

// shed writes one load-shedding response with a Retry-After hint.
func (s *Server) shed(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(int((s.opts.RetryAfter+time.Second-1)/time.Second)))
	http.Error(w, err.Error(), status)
}

// admit acquires the global in-flight slot, or sheds. The release
// function must be called exactly once.
func (s *Server) admit(w http.ResponseWriter) (release func(), ok bool) {
	if !s.ready.Load() || s.draining.Load() {
		s.shed(w, http.StatusServiceUnavailable, ErrDraining)
		return nil, false
	}
	select {
	case s.sem <- struct{}{}:
		s.m.requests.Inc()
		return func() { <-s.sem }, true
	default:
		s.m.shedInFlight.Inc()
		s.shed(w, http.StatusServiceUnavailable, errors.New("server: in-flight limit reached"))
		return nil, false
	}
}

// shedStatus maps a tenant shedding verdict to its HTTP status: 429
// when the client should slow down for this tenant, 503 when the
// server side is the problem.
func shedStatus(err error) (int, bool) {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, true
	case errors.Is(err, ErrStalled), errors.Is(err, ErrDraining),
		errors.Is(err, ErrStopped), errors.Is(err, ErrDeadline):
		return http.StatusServiceUnavailable, true
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, true
	default:
		return 0, false
	}
}

// decodeJSON bounds and decodes a request body.
func decodeJSON(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(into); err != nil {
		http.Error(w, fmt.Sprintf("server: bad request body: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

// writeJSON writes a 200 JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	//lint:ignore errdrop best-effort write; a departed client has nowhere to report the error
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	var req DecideRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Rate <= 0 {
		http.Error(w, fmt.Sprintf("server: rate %v must be positive", req.Rate), http.StatusBadRequest)
		return
	}
	t, ok := s.lookup(req.Tenant)
	if !ok {
		http.Error(w, fmt.Sprintf("server: no tenant %q", req.Tenant), http.StatusNotFound)
		return
	}
	to, level, err := t.Decide(r.Context(), req.Rate)
	if err != nil {
		if status, shed := shedStatus(err); shed {
			s.m.shedTenant.Inc()
			s.shed(w, status, err)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, DecideResponse{
		Tenant: req.Tenant, Tier: level.String(), Level: int(level), Timeout: to,
	})
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	var req ObserveRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	// A bad observation is a client bug, not evidence against the model:
	// the watchdog would score it as a model failure and could demote a
	// healthy tenant, so it never reaches the worker.
	if req.Rate <= 0 || req.Observed <= 0 {
		http.Error(w, fmt.Sprintf("server: rate %v and observed_rt %v must be positive", req.Rate, req.Observed),
			http.StatusBadRequest)
		return
	}
	t, ok := s.lookup(req.Tenant)
	if !ok {
		http.Error(w, fmt.Sprintf("server: no tenant %q", req.Tenant), http.StatusNotFound)
		return
	}
	if err := t.ObserveRT(r.Context(), req.Rate, req.Observed); err != nil {
		if status, shed := shedStatus(err); shed {
			s.m.shedTenant.Inc()
			s.shed(w, status, err)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	list := s.tenantList()
	out := make([]TenantStatus, 0, len(list))
	for _, t := range list {
		lvl := t.Level()
		decisions, _ := t.reg.Value("mdsprint_serve_decisions_total")
		out = append(out, TenantStatus{
			Name: t.cfg.Name, Tier: lvl.String(), Level: int(lvl),
			Decisions: int(decisions), Stalled: t.stalled(),
		})
	}
	writeJSON(w, out)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var req ReloadRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if err := s.Reload(r.Context(), req.Tenants); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, map[string]int{"tenants": len(req.Tenants)})
}

func (s *Server) handleFault(w http.ResponseWriter, r *http.Request) {
	var req FaultRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	t, ok := s.lookup(req.Tenant)
	if !ok {
		http.Error(w, fmt.Sprintf("server: no tenant %q", req.Tenant), http.StatusNotFound)
		return
	}
	m, err := t.model(req.Model)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := m.scriptFault(req.Mode, req.Value); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := s.Health()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if h.Critical() {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	//lint:ignore errdrop best-effort write; a departed probe client has nowhere to report the error
	_ = enc.Encode(h)
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.ready.Load() && !s.draining.Load() {
		//lint:ignore errdrop best-effort write; a departed probe client has nowhere to report the error
		_, _ = w.Write([]byte("ready\n"))
		return
	}
	http.Error(w, "draining", http.StatusServiceUnavailable)
}

// handleMetrics serves the daemon registry, or one tenant's registry
// with ?tenant=name.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := s.reg
	if name := r.URL.Query().Get("tenant"); name != "" {
		t, ok := s.lookup(name)
		if !ok {
			http.Error(w, fmt.Sprintf("server: no tenant %q", name), http.StatusNotFound)
			return
		}
		reg = t.reg
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	//lint:ignore errdrop best-effort write; a departed scrape client has nowhere to report the error
	_ = reg.WritePrometheus(w)
}
