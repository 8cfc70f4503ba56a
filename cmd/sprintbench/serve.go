package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mdsprint/internal/obs"
	"mdsprint/internal/online"
	"mdsprint/internal/server"
	"mdsprint/internal/stats"
)

// serveSpec is the traffic mix of one serve workload. Every mix has the
// shape of `sprintctl load`, the repository's load generator for
// sprintd: one closed-loop connection per tenant sends a decide, then
// an observe of the response time the decided timeout yields on the
// tenant's surface, and repeats.
type serveSpec struct {
	name     string
	tierSpec string // the tenants' tier_spec; "" serves without the tier estimator
	// rate is the arrival rate a connection reports on its i-th decide,
	// counted from the connection's seeded phase.
	rate func(i int) float64
}

// loadRate is the rate `sprintctl load` reports on its i-th decide: a
// cycle of seven steps from 0.4 to 0.657. Against the 0.15 retune
// threshold, three or four decides of each cycle retune.
func loadRate(i int) float64 { return 0.4 + 0.3*float64(i%7)/7 }

// serveLoad is the `sprintctl load` mix on untiered tenants. A retune
// there anneals over closed-form predictions, a few microseconds, so
// HTTP, JSON, admission and the tenant queue do nearly all the work.
var serveLoad = serveSpec{name: "serve-load", rate: loadRate}

// serveRetune brackets serveLoad from above: every decide retunes. The
// rate alternates between the two ends of the load cycle, which lie
// farther apart than the retune threshold, and the tenants route their
// model queries through the tier estimator with the tier_spec the
// repository's README gives as its example. Each decide re-anneals
// through the tier ladder, whose analytic rung answers every question
// at these rates; the retune path grows from about 4% of a request to
// about 13%.
var serveRetune = serveSpec{
	name:     "serve-retune",
	tierSpec: "bound=0.1",
	rate:     func(i int) float64 { return loadRate(6 * (i % 2)) },
}

// The tenants' response-time surface and retune threshold, set
// explicitly: the observations a connection reports come from the
// surface the tenants model, and a connection predicts which of its
// decides retune.
const (
	tenantMu              = 1.0
	tenantGain            = 0.8
	tenantSweet           = 20.0
	tenantMaxTimeout      = 60.0
	tenantRetuneThreshold = 0.15
)

var tenantNames = []string{"ads", "search"}

const (
	// serveRounds splits the measured time into rounds, each followed by
	// the host probe. Throughput and latency are medians over the rounds,
	// which keeps a burst of host noise in one round out of the result.
	// On the 2-vCPU VM the bounds were fitted on, sixty rounds of a 30 s
	// run, against twenty, cut the run-to-run spread of the serve time
	// metrics from 6–11% to 2–6%: the probe factor is the median of three
	// times as many measurements.
	serveRounds = 60
	// sampleEvery: a traced round spans one request in four.
	sampleEvery = 4
	// refSeed seeds the set-up's reference request script, and refOps
	// is its length per tenant; their ledger chains are pinned.
	refSeed = 1
	refOps  = 40
	// serveSetupReps is how many times a run sets sprintd up; setup_s is
	// the median. A set-up takes milliseconds, so many repetitions are
	// cheap and keep one slow start from setting the result.
	serveSetupReps = 15
)

// conn is one closed-loop client connection owning one tenant: it sends
// its next request only once the previous one has answered, as a
// `sprintctl load` worker does.
type conn struct {
	tenant string
	spec   *serveSpec
	base   string
	client *server.Client
	// sampler picks the requests a traced round spans. It is random, not
	// every n-th request, so the sample does not alias with the
	// decide/observe cycle or the alternating retune rates.
	sampler *rand.Rand
	// open is the sampled client.request span in flight, the parent of
	// the server.handler span the daemon side opens.
	open atomic.Pointer[obs.Span]

	phase       int // the rate schedule's seeded offset
	decides     int // decides sent
	okDecides   int
	observeNext bool
	lastRate    float64
	lastTO      float64
	// tunedRate is the rate of the last decide that retuned, and retunes
	// counts the answered decides that retune by the tenant's threshold
	// rule.
	tunedRate float64
	retunes   int

	lat      []float64 // seconds per request of the current round
	failed   int
	firstErr error
}

// next sends the connection's next request and checks the answer. A
// decide that stays within the retune threshold of the last retune must
// return the tenant's cached timeout bit for bit.
func (c *conn) next(ctx context.Context) error {
	if c.observeNext {
		c.observeNext = false
		return c.client.Observe(ctx, c.tenant, c.lastRate, online.SurfaceRT(tenantMu, tenantGain, tenantSweet, c.lastRate, c.lastTO))
	}
	rate := c.spec.rate(c.phase + c.decides)
	c.decides++
	retune := c.okDecides == 0 || math.Abs(rate-c.tunedRate)/c.tunedRate > tenantRetuneThreshold
	resp, err := c.client.Decide(ctx, c.tenant, rate)
	switch {
	case err != nil:
		return err
	case resp.Level != int(online.LevelHybrid):
		return fmt.Errorf("decide served by the %s tier", resp.Tier)
	case !(resp.Timeout >= 0 && resp.Timeout <= tenantMaxTimeout):
		return fmt.Errorf("timeout %v outside [0, %v]", resp.Timeout, tenantMaxTimeout)
	case !retune && math.Float64bits(resp.Timeout) != math.Float64bits(c.lastTO):
		return fmt.Errorf("decide at rate %v moved the timeout to %v from the cached %v", rate, resp.Timeout, c.lastTO)
	}
	if retune {
		c.tunedRate = rate
		c.retunes++
	}
	c.okDecides++
	c.observeNext = true
	c.lastRate, c.lastTO = rate, resp.Timeout
	return nil
}

// roundStat is one connection's share of a round.
type roundStat struct {
	ops, ok int
	busy    float64 // seconds spent inside requests
	window  float64 // seconds from the round's start to the last answer
}

// round sends requests from start until the deadline passes, timing each
// one. With a tracer, it spans a random one in sampleEvery requests.
func (c *conn) round(ctx context.Context, start, deadline time.Time, tr *obs.SpanTracer) roundStat {
	var st roundStat
	c.lat = c.lat[:0]
	for {
		var sp *obs.Span
		t0 := time.Now()
		if tr != nil && c.sampler.IntN(sampleEvery) == 0 {
			sp = tr.StartSpan("client.request")
			c.open.Store(sp)
		}
		err := c.next(ctx)
		if sp != nil {
			c.open.Store(nil)
			sp.End()
		}
		t1 := time.Now()
		d := t1.Sub(t0).Seconds()
		c.lat = append(c.lat, d)
		st.ops++
		st.busy += d
		if err == nil {
			st.ok++
		} else {
			c.failed++
			if c.firstErr == nil {
				c.firstErr = err
			}
		}
		if !t1.Before(deadline) {
			st.window = t1.Sub(start).Seconds()
			return st
		}
	}
}

// spanHandler puts sprintd's handler inside a server.handler span, the
// child of the client.request span its connection has open (none when
// the request is not sampled).
// It also adds every request's handler time to busy, sampled or not.
type spanHandler struct {
	next http.Handler
	open *atomic.Pointer[obs.Span]
	busy *atomic.Int64 // nanoseconds
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sp := h.open.Load().StartChild("server.handler")
	start := time.Now()
	h.next.ServeHTTP(w, r)
	h.busy.Add(int64(time.Since(start)))
	sp.End()
}

// stack is one sprintd served over loopback: the daemon, and per tenant
// connection a listener, an http.Server and the connection's client.
type stack struct {
	srv      *server.Server
	cancel   context.CancelFunc
	https    []*http.Server
	served   sync.WaitGroup
	serveErr chan error // one slot per http.Server
	conns    []*conn
	snapPath string
	stopped  bool
	// handlerNS sums the time requests spent inside sprintd's handler;
	// only a traced stack measures it.
	handlerNS atomic.Int64
}

// startStack starts sprintd with its state snapshot at snapPath and one
// connection per tenant. The seed draws each tenant's search seed and
// each connection's phase in the rate schedule.
func startStack(spec *serveSpec, snapPath string, seed uint64, traced bool) (*stack, error) {
	ctx, cancel := context.WithCancel(context.Background())
	rng := rand.New(rand.NewPCG(seed, 0))
	cfgs := make([]server.TenantConfig, len(tenantNames))
	phases := make([]int, len(tenantNames))
	for i, name := range tenantNames {
		cfgs[i] = server.TenantConfig{
			Name: name, ServiceRate: tenantMu, SprintGain: tenantGain, SweetTimeout: tenantSweet,
			MaxTimeout: tenantMaxTimeout, RetuneThreshold: tenantRetuneThreshold, TierSpec: spec.tierSpec,
			Seed: rng.Uint64() | 1,
		}
		phases[i] = rng.IntN(7)
	}
	// The snapshot is written when the daemon drains, never inside a
	// measured round.
	srv, err := server.New(ctx, server.Options{Tenants: cfgs, SnapshotPath: snapPath, SnapshotEvery: time.Hour})
	if err != nil {
		cancel()
		return nil, err
	}
	st := &stack{srv: srv, cancel: cancel, snapPath: snapPath, serveErr: make(chan error, len(tenantNames))}
	for i, name := range tenantNames {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, errors.Join(fmt.Errorf("listening: %w", err), st.stop())
		}
		c := &conn{tenant: name, spec: spec, base: "http://" + ln.Addr().String(), phase: phases[i], sampler: rand.New(rand.NewPCG(seed, uint64(i)+1))}
		c.client = &server.Client{
			BaseURL:        c.base,
			HTTP:           &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
			MaxRetries:     -1, // a shed or failed request counts as failed, not retried
			AttemptTimeout: 10 * time.Second,
		}
		var h http.Handler = srv.Handler()
		if traced {
			h = &spanHandler{next: h, open: &c.open, busy: &st.handlerNS}
		}
		hs := &http.Server{Handler: h}
		st.https = append(st.https, hs)
		st.conns = append(st.conns, c)
		st.served.Add(1)
		go func() {
			defer st.served.Done()
			st.serveErr <- hs.Serve(ln)
		}()
	}
	return st, nil
}

// round runs every connection concurrently until d has passed. It
// returns their summed stats, the round's wall time in seconds, and
// every request's latency in seconds, in lat's storage.
func (st *stack) round(ctx context.Context, d time.Duration, tr *obs.SpanTracer, lat []float64) (roundStat, float64, []float64) {
	start := time.Now()
	per := make([]roundStat, len(st.conns))
	var wg sync.WaitGroup
	for i, c := range st.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			per[i] = c.round(ctx, start, start.Add(d), tr)
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	var sum roundStat
	lat = lat[:0]
	for i, s := range per {
		sum.ops += s.ops
		sum.ok += s.ok
		sum.busy += s.busy
		sum.window += s.window
		lat = append(lat, st.conns[i].lat...)
	}
	return sum, wall, lat
}

// get fetches path from the daemon and returns the body of a 200.
func (st *stack) get(path string) ([]byte, error) {
	c := st.conns[0]
	resp, err := c.client.HTTP.Get(c.base + path)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, body)
	}
	return body, nil
}

// scrape reads the daemon's registry and every tenant's through
// /metrics, plus the process-wide registry the simulator records into.
func (st *stack) scrape() (counters, error) {
	total := mustScrape(obs.Default())
	paths := []string{"/metrics"}
	for _, name := range tenantNames {
		paths = append(paths, "/metrics?tenant="+name)
	}
	for _, p := range paths {
		body, err := st.get(p)
		if err != nil {
			return nil, err
		}
		m, err := parseProm(bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		total = total.add(m)
	}
	return total, nil
}

// stop drains sprintd, which writes its final snapshot, then stops the
// HTTP servers and the daemon's goroutines and waits for them.
func (st *stack) stop() error {
	if st.stopped {
		return nil
	}
	st.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := st.srv.Drain(ctx)
	for _, hs := range st.https {
		err = errors.Join(err, hs.Shutdown(ctx))
	}
	st.served.Wait()
	close(st.serveErr)
	for e := range st.serveErr {
		if !errors.Is(e, http.ErrServerClosed) {
			err = errors.Join(err, e)
		}
	}
	for _, c := range st.conns {
		c.client.HTTP.CloseIdleConnections()
	}
	st.cancel()
	return err
}

// drainedSnapshot stops the stack and reads the snapshot sprintd wrote
// as it drained, checking that each tenant's ledger holds exactly the
// decides its connection saw answered and that no tenant demoted.
func (st *stack) drainedSnapshot() (server.Snapshot, error) {
	if err := st.stop(); err != nil {
		return server.Snapshot{}, fmt.Errorf("draining: %w", err)
	}
	snap, ok, err := server.ReadSnapshot(st.snapPath)
	if err != nil {
		return server.Snapshot{}, err
	}
	if !ok {
		return server.Snapshot{}, fmt.Errorf("sprintd wrote no snapshot at %s", st.snapPath)
	}
	for _, c := range st.conns {
		ts, ok := snap.Tenants[c.tenant]
		switch {
		case !ok:
			return snap, fmt.Errorf("snapshot has no tenant %s", c.tenant)
		case ts.Ledger.Seq != c.okDecides:
			return snap, fmt.Errorf("tenant %s ledger holds %d decisions, its connection saw %d answered", c.tenant, ts.Ledger.Seq, c.okDecides)
		case ts.Demotions != 0:
			return snap, fmt.Errorf("tenant %s demoted %d time(s)", c.tenant, ts.Demotions)
		}
	}
	return snap, nil
}

// chainDigest folds the tenants' ledger chains, in tenant order.
func chainDigest(snap server.Snapshot) (uint64, error) {
	d := fnvOffset
	for _, name := range tenantNames {
		chain, err := strconv.ParseUint(snap.Tenants[name].Ledger.Chain, 16, 64)
		if err != nil {
			return 0, fmt.Errorf("tenant %s ledger chain: %w", name, err)
		}
		d = fnvWord(d, chain)
	}
	return d, nil
}

// serveSetup starts sprintd serveSetupReps times and times each start up
// to every tenant's first answered decide (its first anneal), followed
// by the host probe. The first stack then plays the fixed reference
// script and drains, and its chains are the digest; the last stack is
// returned for measuring.
func serveSetup(ctx context.Context, c config, spec *serveSpec, dir string, probe *hostProbe) (st *stack, walls []float64, digest uint64, err error) {
	for k := 0; ; k++ {
		seed := c.seed
		if k == 0 {
			seed = refSeed
		}
		start := time.Now()
		st, err = startStack(spec, filepath.Join(dir, fmt.Sprintf("snapshot-%d.json", k)), seed, c.traced && k == serveSetupReps-1)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("set-up %d: %w", k, err)
		}
		for _, cn := range st.conns {
			if err := cn.next(ctx); err != nil {
				return nil, nil, 0, errors.Join(fmt.Errorf("set-up %d: first decide for %s: %w", k, cn.tenant, err), st.stop())
			}
		}
		walls = append(walls, time.Since(start).Seconds())
		if err := probe.measure(); err != nil {
			return nil, nil, 0, errors.Join(err, st.stop())
		}
		if k == serveSetupReps-1 {
			return st, walls, digest, nil
		}
		if k > 0 {
			if err := st.stop(); err != nil {
				return nil, nil, 0, fmt.Errorf("set-up %d: %w", k, err)
			}
			continue
		}
		for _, cn := range st.conns {
			for i := 1; i < refOps; i++ {
				if err := cn.next(ctx); err != nil {
					return nil, nil, 0, errors.Join(fmt.Errorf("reference script for %s: %w", cn.tenant, err), st.stop())
				}
			}
		}
		snap, err := st.drainedSnapshot()
		if err != nil {
			return nil, nil, 0, fmt.Errorf("reference script: %w", err)
		}
		if digest, err = chainDigest(snap); err != nil {
			return nil, nil, 0, err
		}
	}
}

// runServe is a serve workload: set up, then serveRounds rounds of
// closed-loop traffic, one connection per tenant, each round followed by
// the host probe. A traced run traces the even rounds and leaves the odd
// ones plain.
func runServe(ctx context.Context, c config, spec serveSpec) (res *Result, err error) {
	r := newResult(c.traced)
	if err := os.MkdirAll(c.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(c.workDir, "serve-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = rerr
		}
	}()
	echo, err := startEchoProbe(len(tenantNames))
	if err != nil {
		return nil, err
	}
	defer func() {
		if serr := echo.stop(); serr != nil && err == nil {
			err = serr
		}
	}()
	probeDur := time.Duration(c.seconds * echoProbeShare * float64(time.Second))
	probe := echo.hostProbe(probeDur)

	st, setups, digest, err := serveSetup(ctx, c, &spec, dir, probe)
	if err != nil {
		return nil, err
	}
	defer func() {
		if serr := st.stop(); serr != nil && err == nil {
			err = serr
		}
	}()
	checkPin(r, c.log, spec.name, digest)

	var tr *obs.SpanTracer
	if c.traced {
		tr = obs.NewSpanTracer(obs.SpanOptions{MaxSpans: 1 << 20})
	}
	retunesBefore := 0
	for _, cn := range st.conns {
		retunesBefore += cn.retunes
	}
	reg0, err := st.scrape()
	if err != nil {
		return nil, err
	}
	setupFactor := probe.endPhase()
	before, handler0 := readUsage(), st.handlerNS.Load()
	// Per plain round: answered requests per second, latency quantiles
	// and seconds per request. Per traced round: seconds per request.
	var plainRPS, p50s, p99s, plainSPR, tracedSPR []float64
	var handlerUS, clientUS, lat []float64
	var tracedBusy, tracedWindows float64
	var kept []obs.SpanData
	roundDur := time.Duration(c.seconds/serveRounds*float64(time.Second)) - probeDur
	for round := 0; round < serveRounds; round++ {
		var rtr *obs.SpanTracer
		if c.traced && round%2 == 0 {
			rtr = tr
		}
		var s roundStat
		var wall float64
		s, wall, lat = st.round(ctx, roundDur, rtr, lat)
		r.Attempted += s.ops
		if err := probe.measure(); err != nil {
			return nil, err
		}
		spr := wall / float64(s.ok)
		if rtr == nil {
			plainRPS = append(plainRPS, 1/spr)
			plainSPR = append(plainSPR, spr)
			p50s = append(p50s, stats.Median(lat))
			p99s = append(p99s, stats.Quantile(lat, 0.99))
			continue
		}
		tracedSPR = append(tracedSPR, spr)
		tracedBusy += s.busy
		tracedWindows += s.window
		spans := tr.Drain()
		h, cl := requestTimes(spans)
		handlerUS, clientUS = append(handlerUS, h...), append(clientUS, cl...)
		if c.traceOut != "" {
			kept = append(kept, spans...)
		}
	}
	used, handlerSeconds := readUsage().sub(before).sub(probe.used), float64(st.handlerNS.Load()-handler0)/1e9
	reg1, err := st.scrape()
	if err != nil {
		return nil, err
	}
	if _, err := st.get("/debug/health"); err != nil {
		r.fail(c.log, "health: %v", err)
	}
	wantRetunes := -retunesBefore
	for _, cn := range st.conns {
		r.Failed += cn.failed
		if cn.firstErr != nil {
			fmt.Fprintf(c.log, "sprintbench: %s: %d failed request(s), first: %v\n", cn.tenant, cn.failed, cn.firstErr)
		}
		wantRetunes += cn.retunes
	}
	if _, err := st.drainedSnapshot(); err != nil {
		r.fail(c.log, "%v", err)
	}
	d := reg1.sub(reg0)
	if retunes := int(d["mdsprint_online_retunes_total"]); retunes != wantRetunes {
		r.fail(c.log, "sprintd retuned %d time(s), the threshold rule says %d", retunes, wantRetunes)
	}

	if !c.traced {
		// Each round's p99 has hundreds of requests beyond it; the
		// reported latencies are the medians of the rounds' quantiles.
		return r, r.setEndToEnd(c.log, endToEnd{
			setups: setups, setupFactor: setupFactor,
			p50: stats.Median(p50s), tail: stats.Median(p99s),
			opsPerSec: stats.Median(plainRPS), factor: probe.endPhase(),
			ops: r.Attempted, used: used,
		})
	}
	r.setCounters(d, r.Attempted)
	r.setRuntime(used, r.Attempted)
	r.set("server.handler_us.p50", stats.Median(handlerUS))
	r.set("server.handler_us.p99", stats.Quantile(handlerUS, 0.99))
	r.set("server.wire_us.mean", 1e6*(handlerSeconds-d["mdsprint_decision_select_seconds_sum"])/float64(r.Attempted))
	r.set("client.self_us.p50", stats.Median(clientUS))
	r.set("client.self_us.p99", stats.Quantile(clientUS, 0.99))
	r.set("bench.glue_frac", 1-tracedBusy/tracedWindows)
	r.set("bench.trace_overhead_frac", overhead(tracedSPR, plainSPR))
	r.set("bench.host_factor", probe.endPhase())
	return r, saveTrace(c, kept)
}

// requestTimes pairs each sampled client.request span with its
// server.handler child and returns, in microseconds, the handler's time
// and the client's own: the round trip minus the handler.
func requestTimes(spans []obs.SpanData) (handler, client []float64) {
	inHandler := map[uint64]int64{}
	for _, s := range spans {
		if s.Name == "server.handler" {
			inHandler[s.Parent] = s.EndNS - s.StartNS
		}
	}
	for _, s := range spans {
		h, ok := inHandler[s.ID]
		if s.Name != "client.request" || !ok {
			continue
		}
		handler = append(handler, float64(h)/1e3)
		client = append(client, float64(s.EndNS-s.StartNS-h)/1e3)
	}
	return handler, client
}
