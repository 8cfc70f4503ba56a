package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mdsprint/internal/fault"
	"mdsprint/internal/lifecycle"
	"mdsprint/internal/obs"
	"mdsprint/internal/online"
	"mdsprint/internal/server"
)

// cmdSprintd runs the policy-serving daemon: many independently
// calibrated tenants behind one HTTP surface, with admission control,
// bulkhead isolation, periodic crash-safety snapshots and a graceful
// SIGTERM drain.
//
//	sprintctl sprintd -addr :8600 -tenants search,ads -snapshot state.json
//	sprintctl sprintd -config tenants.json -snapshot state.json
func cmdSprintd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sprintd", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8600", "listen address for the serving API")
	config := fs.String("config", "", "tenant config file (JSON array of tenant configs); overrides -tenants")
	tenants := fs.String("tenants", "default", "comma-separated tenant names served with default configs")
	snapshot := fs.String("snapshot", "", "crash-safety snapshot path (empty disables persistence)")
	snapEvery := fs.Duration("snapshot-every", 5*time.Second, "periodic snapshot interval")
	maxInFlight := fs.Int("max-inflight", 256, "global in-flight request valve; excess sheds 503")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "how long a SIGTERM drain may take before giving up")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfgs, err := loadTenantConfigs(*config, *tenants)
	if err != nil {
		return err
	}

	// The daemon's own context is NOT the signal context: SIGTERM must
	// trigger a drain (finish queued work, snapshot, exit), not the
	// hard stop a canceled server context means.
	srvCtx, hardStop := context.WithCancel(context.Background())
	defer hardStop()
	s, err := server.New(srvCtx, server.Options{
		Tenants:       cfgs,
		MaxInFlight:   *maxInFlight,
		SnapshotPath:  *snapshot,
		SnapshotEvery: *snapEvery,
		Logf:          logg.Infof,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("sprintd: %w", err)
	}
	hs := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	logg.Infof("sprintd: serving %d tenant(s) on http://%s", len(cfgs), ln.Addr())
	if sprintdBound != nil {
		sprintdBound(ln.Addr().String())
	}

	select {
	case err := <-serveErr:
		return fmt.Errorf("sprintd: %w", err)
	case <-ctx.Done():
	}

	// Graceful shutdown, in order: stop accepting, drain every tenant
	// queue, write the final snapshot. Each step is best effort — a
	// wedged tenant cannot hold the exit hostage past -drain-timeout.
	logg.Infof("sprintd: draining (up to %s)...", *drainTimeout)
	dctx, dcancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer dcancel()
	flush := &lifecycle.FlushSet{Errorf: logg.Errorf}
	flush.Add("http shutdown", func() error { return hs.Shutdown(dctx) })
	flush.Add("tenant drain", func() error { return s.Drain(dctx) })
	flush.Run()
	logg.Infof("sprintd: drained")
	return nil
}

// sprintdBound, when set (tests only), receives the daemon's actual
// listen address — the way a test using -addr :0 learns the port.
var sprintdBound func(addr string)

// loadTenantConfigs resolves the daemon's tenant set: a JSON config
// file when given, otherwise default configs for the -tenants names.
func loadTenantConfigs(path, names string) ([]server.TenantConfig, error) {
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("sprintd: %w", err)
		}
		var cfgs []server.TenantConfig
		if err := json.Unmarshal(data, &cfgs); err != nil {
			return nil, fmt.Errorf("sprintd: parsing %s: %w", path, err)
		}
		if len(cfgs) == 0 {
			return nil, fmt.Errorf("sprintd: %s defines no tenants", path)
		}
		return cfgs, nil
	}
	var cfgs []server.TenantConfig
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		cfgs = append(cfgs, server.TenantConfig{Name: n})
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("sprintd: no tenants (use -tenants or -config)")
	}
	return cfgs, nil
}

// newServeClient builds the client every serving subcommand shares:
// jittered-backoff retries, per-attempt timeouts, retry narration on
// stderr.
func newServeClient(addr string, retries int) *server.Client {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	c := &server.Client{
		BaseURL: strings.TrimSuffix(base, "/"),
		OnRetry: func(n int) { logg.Debugf("retry %d", n) },
	}
	if retries <= 0 {
		c.MaxRetries = -1
	} else {
		c.MaxRetries = retries
	}
	return c
}

// cmdDecide asks a running sprintd for one sprinting decision, retrying
// through sheds and transient faults with jittered backoff.
//
//	sprintctl decide -addr localhost:8600 -tenant search -rate 0.6
func cmdDecide(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("decide", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8600", "sprintd address")
	tenant := fs.String("tenant", "default", "tenant to decide for")
	rate := fs.Float64("rate", 0.5, "arrival rate as a fraction of the tenant's service rate")
	observe := fs.Float64("observe", -1, "also report this observed response time (seconds; negative skips)")
	retries := fs.Int("retries", 3, "client retries through sheds and transport faults (0 disables)")
	timeout := fs.Duration("timeout", 10*time.Second, "overall deadline across all attempts")
	if err := fs.Parse(args); err != nil {
		return err
	}

	c := newServeClient(*addr, *retries)
	cctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()
	res, err := c.Decide(cctx, *tenant, *rate)
	if err != nil {
		return err
	}
	fmt.Printf("%s: tier %s (level %d)  timeout %.1f s\n",
		res.Tenant, res.Tier, res.Level, res.Timeout)
	if *observe >= 0 {
		if err := c.Observe(cctx, *tenant, *rate, *observe); err != nil {
			return err
		}
		fmt.Printf("observed %.1f s reported\n", *observe)
	}
	return nil
}

// cmdLoad drives closed-loop load at a running sprintd, optionally
// through the fault package's chaos transport, and reports what the
// daemon did with it: decisions served, sheds absorbed, retries spent.
//
//	sprintctl load -addr localhost:8600 -tenants search,ads -workers 4 -duration 5s
//	sprintctl load ... -drop 0.1 -err 0.1   inject transport chaos client-side
func cmdLoad(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8600", "sprintd address")
	tenants := fs.String("tenants", "default", "comma-separated tenants to load (workers round-robin)")
	workers := fs.Int("workers", 4, "concurrent closed-loop workers")
	duration := fs.Duration("duration", 5*time.Second, "how long to drive load")
	retries := fs.Int("retries", 3, "client retries per request (0 disables)")
	drop := fs.Float64("drop", 0, "chaos transport: probability a request is dropped client-side")
	errp := fs.Float64("err", 0, "chaos transport: probability a request gets an injected 5xx")
	seed := fs.Uint64("seed", 1, "chaos transport seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := strings.Split(*tenants, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}

	lctx, cancel := context.WithTimeout(ctx, *duration)
	defer cancel()
	var served, shed, faulted, failed, retried atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newServeClient(*addr, *retries)
			c.Seed = *seed + uint64(w)*101
			c.OnRetry = func(int) { retried.Add(1) }
			if *drop > 0 || *errp > 0 {
				c.HTTP = &http.Client{Transport: fault.NewRoundTripper(http.DefaultTransport, fault.HTTPFaultConfig{
					Seed: *seed + uint64(w), DropProb: *drop, ErrorProb: *errp,
					Metrics: obs.Default(),
				})}
			}
			tenant := names[w%len(names)]
			for i := 0; lctx.Err() == nil; i++ {
				rate := 0.4 + 0.3*float64(i%7)/7
				res, err := c.Decide(lctx, tenant, rate)
				switch {
				case err == nil:
					served.Add(1)
					// Close the loop with an observation off the sprint
					// response surface, so tenants keep calibrating.
					rt := online.SurfaceRT(1, 0.8, 20, rate, res.Timeout)
					//lint:ignore errdrop load-generator observations are best effort
					_ = c.Observe(lctx, tenant, rate, rt)
				case lctx.Err() != nil:
					// Deadline, not a daemon verdict.
				case strings.Contains(err.Error(), "429") || strings.Contains(err.Error(), "503"):
					shed.Add(1)
				case strings.Contains(err.Error(), "injected"):
					// Our own chaos transport out-lasted the retry
					// budget — client-side noise, not a daemon failure.
					faulted.Add(1)
				default:
					failed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := served.Load()
	fmt.Printf("load: %d decision(s) in %s (%.0f/s), %d shed, %d chaos-lost, %d retries, %d failure(s)\n",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds(),
		shed.Load(), faulted.Load(), retried.Load(), failed.Load())
	if failed.Load() > 0 {
		return fmt.Errorf("load: %d request(s) failed with non-shed errors", failed.Load())
	}
	return nil
}
