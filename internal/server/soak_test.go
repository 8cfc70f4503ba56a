package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mdsprint/internal/fault"
	"mdsprint/internal/obs"
	"mdsprint/internal/online"
)

// TestDaemonSoak is the end-to-end robustness scenario `make soak`
// runs under -race: concurrent tenants under client-side transport
// faults, a scripted model outage and a scripted panic, an overload
// burst that must shed (not queue unboundedly, not crash), a hot
// reload mid-traffic, a clean drain, and a kill-and-restore whose
// ledger continuation matches the snapshot exactly.
func TestDaemonSoak(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "state.json")
	cfgs := []TenantConfig{
		{Name: "alpha", AnnealIter: 15, QueueDepth: 8},
		{Name: "bravo", AnnealIter: 15},
		{Name: "charlie", AnnealIter: 15},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := New(ctx, Options{
		Tenants:       cfgs,
		SnapshotPath:  snapPath,
		SnapshotEvery: 50 * time.Millisecond,
		MaxInFlight:   64,
		Logf:          cleanupGuardedLogf(t),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Traffic: two workers per tenant, each riding the retry plan
	// through a seeded chaos transport (drops + injected 503s).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var served, abandoned atomic.Int64
	workerErrs := make(chan error, 16)
	for ti, cfg := range cfgs {
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(tenant string, seed uint64) {
				defer wg.Done()
				chaos := fault.NewRoundTripper(http.DefaultTransport, fault.HTTPFaultConfig{
					Seed: seed, DropProb: 0.1, ErrorProb: 0.1, Metrics: obs.NewRegistry(),
				})
				c := &Client{
					BaseURL:    srv.URL,
					HTTP:       &http.Client{Transport: chaos},
					MaxRetries: 6, Backoff: 2 * time.Millisecond, Seed: seed,
					AttemptTimeout: time.Second,
				}
				i := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					i++
					rate := 0.4 + 0.3*float64(i%5)/5
					cctx, ccancel := context.WithTimeout(context.Background(), 2*time.Second)
					res, err := c.Decide(cctx, tenant, rate)
					if err == nil {
						served.Add(1)
						obsRT := online.SurfaceRT(online.DefaultServiceRate, online.DefaultSprintGain, online.DefaultSweetTimeout, rate, res.Timeout)
						//lint:ignore errdrop a shed observation under injected faults is expected soak noise
						_ = c.Observe(cctx, tenant, rate, obsRT)
					} else if isShedOrFault(err) {
						abandoned.Add(1)
					} else {
						select {
						case workerErrs <- fmt.Errorf("tenant %s decide: %w", tenant, err):
						default:
						}
					}
					ccancel()
				}
			}(cfg.Name, uint64(ti*2+w+1))
		}
	}

	time.Sleep(150 * time.Millisecond)

	// Scripted model outage on bravo: the daemon must demote, not fail.
	admin := &Client{BaseURL: srv.URL, MaxRetries: 4, Backoff: 5 * time.Millisecond}
	if err := admin.Fault(ctx, FaultRequest{Tenant: "bravo", Mode: "fail", Value: 1}); err != nil {
		t.Fatalf("scripting bravo outage: %v", err)
	}
	// Scripted panic burst on charlie: the bulkhead must absorb it.
	if err := admin.Fault(ctx, FaultRequest{Tenant: "charlie", Mode: "panic", Value: 1}); err != nil {
		t.Fatalf("scripting charlie panic: %v", err)
	}
	time.Sleep(150 * time.Millisecond)
	if err := admin.Fault(ctx, FaultRequest{Tenant: "charlie", Mode: "clear"}); err != nil {
		t.Fatalf("clearing charlie: %v", err)
	}

	// Overload burst against alpha's 8-deep queue: wedge its model
	// briefly and flood; the daemon must shed with 429/503, fast. A
	// decide inside the retune threshold answers from the cached
	// timeout without consulting the model, so the delay stalls alpha's
	// worker only while an observe or a retune is in a model call. The
	// flood is released once the worker is inside such a delayed call.
	alpha, _ := s.lookup("alpha")
	modelCalls := func() uint64 { return alpha.primary.Predicts() + alpha.fallback.Predicts() }
	if err := admin.Fault(ctx, FaultRequest{Tenant: "alpha", Mode: "delay", Value: 0.05}); err != nil {
		t.Fatalf("scripting alpha delay: %v", err)
	}
	var sheds atomic.Int64
	var burst sync.WaitGroup
	flood := make(chan struct{})
	for i := 0; i < 40; i++ {
		burst.Add(1)
		go func() {
			defer burst.Done()
			<-flood
			resp, err := http.Post(srv.URL+"/v1/decide", "application/json",
				strings.NewReader(`{"tenant":"alpha","rate":0.5}`))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
				if resp.Header.Get("Retry-After") == "" {
					select {
					case workerErrs <- fmt.Errorf("shed %d without Retry-After", resp.StatusCode):
					default:
					}
				}
				sheds.Add(1)
			}
		}()
	}
	// Any model call that starts after the fault is scripted sees the
	// delay, so a rise in the call count means the worker is stalled.
	callsBefore := modelCalls()
	for deadline := time.Now().Add(5 * time.Second); modelCalls() == callsBefore; {
		if time.Now().After(deadline) {
			t.Fatal("alpha's model was never consulted under the delay fault")
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(flood)
	burst.Wait()
	if err := admin.Fault(ctx, FaultRequest{Tenant: "alpha", Mode: "clear"}); err != nil {
		t.Fatalf("clearing alpha: %v", err)
	}
	if sheds.Load() == 0 {
		t.Fatal("overload burst was never shed: admission control is not engaging")
	}

	// Health must still render under load, and bravo's live outage must
	// show in it (tenant-prefixed checks). Checked before the reload:
	// reload rebuilds models, which clears the scripted fault.
	time.Sleep(100 * time.Millisecond)
	h := s.Health()
	foundBravo := false
	for _, p := range h.Problems {
		if strings.HasPrefix(p.Check, "bravo/") {
			foundBravo = true
		}
	}
	if !foundBravo {
		t.Fatalf("health %+v does not reflect bravo's scripted outage", h.Problems)
	}

	// Hot reload mid-traffic: same names, retuned queue depths.
	reloaded := []TenantConfig{
		{Name: "alpha", AnnealIter: 15, QueueDepth: 32},
		{Name: "bravo", AnnealIter: 15},
		{Name: "charlie", AnnealIter: 15},
	}
	if err := admin.Reload(ctx, reloaded); err != nil {
		t.Fatalf("hot reload: %v", err)
	}
	time.Sleep(150 * time.Millisecond)

	close(stop)
	wg.Wait()
	select {
	case err := <-workerErrs:
		t.Fatalf("soak traffic hit a non-shed failure: %v", err)
	default:
	}
	if served.Load() == 0 {
		t.Fatal("soak served zero decisions")
	}

	// Clean drain with final snapshot, then kill.
	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("Drain after soak: %v", err)
	}
	snap, ok, err := ReadSnapshot(snapPath)
	if err != nil || !ok {
		t.Fatalf("final snapshot: ok=%v err=%v", ok, err)
	}
	cancel() // the kill

	// Restore: the rebooted daemon continues each tenant exactly at the
	// snapshot's ledger chain, and still serves.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	s2, err := New(ctx2, Options{Tenants: reloaded, SnapshotPath: snapPath})
	if err != nil {
		t.Fatalf("restore boot: %v", err)
	}
	for name, want := range snap.Tenants {
		tn, ok := s2.lookup(name)
		if !ok {
			t.Fatalf("restored daemon lost tenant %s", name)
		}
		st := tn.ledger.State()
		if st.Seq != want.Ledger.Seq || st.Chain != want.Ledger.Chain {
			t.Fatalf("tenant %s restored at seq %d chain %s, snapshot says seq %d chain %s",
				name, st.Seq, st.Chain, want.Ledger.Seq, want.Ledger.Chain)
		}
		if got := int(tn.Level()); got != want.Fallback.Level {
			t.Fatalf("tenant %s restored at level %d, snapshot says %d", name, got, want.Fallback.Level)
		}
		if _, _, err := tn.Decide(context.Background(), 0.5); err != nil {
			t.Fatalf("restored tenant %s cannot decide: %v", name, err)
		}
	}
}

// isShedOrFault reports whether a client error is expected soak noise:
// a shed (429/503 after retries ran out) or an injected transport
// fault, as opposed to a daemon bug.
func isShedOrFault(err error) bool {
	msg := err.Error()
	return strings.Contains(msg, "429") ||
		strings.Contains(msg, "503") ||
		strings.Contains(msg, "injected") ||
		strings.Contains(msg, "context deadline exceeded") ||
		strings.Contains(msg, "connection refused")
}

// cleanupGuardedLogf returns a Logf that forwards to t.Logf until t's
// cleanups start, then drops lines. After an early t.Fatalf only the
// deferred cancel runs and nothing waits for the snapshot loop, which
// may still log; t.Logf after the test returns panics the binary and
// aborts the remaining -count runs. The mutex makes the cut-off exact:
// once the cleanup holds it, no t.Logf call is in flight.
func cleanupGuardedLogf(t *testing.T) func(format string, args ...any) {
	var mu sync.Mutex
	done := false
	t.Cleanup(func() {
		mu.Lock()
		done = true
		mu.Unlock()
	})
	return func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if !done {
			t.Logf(format, args...)
		}
	}
}
