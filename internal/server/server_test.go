package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mdsprint/internal/online"
)

// testTenants returns a small deterministic tenant set.
func testTenants(names ...string) []TenantConfig {
	out := make([]TenantConfig, 0, len(names))
	for _, n := range names {
		out = append(out, TenantConfig{Name: n, AnnealIter: 15})
	}
	return out
}

// newTestServer builds a server whose background goroutines die with
// the test.
func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	s, err := New(ctx, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// drive runs steps decide+observe rounds against one tenant with a
// deterministic drifting rate, failing the test on any error.
func driveTenant(t *testing.T, tn *tenant, start, steps int) {
	t.Helper()
	for i := start; i < start+steps; i++ {
		rate := 0.5 + 0.2*float64(i%7)/7
		to, _, err := tn.Decide(context.Background(), rate)
		if err != nil {
			t.Fatalf("decide %d: %v", i, err)
		}
		obsRT := online.SurfaceRT(tn.cfg.ServiceRate, tn.cfg.SprintGain, tn.cfg.SweetTimeout, rate, to)
		if err := tn.ObserveRT(context.Background(), rate, obsRT); err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
	}
}

func TestDecideAndTenantListing(t *testing.T) {
	s := newTestServer(t, Options{Tenants: testTenants("alpha", "beta")})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}

	res, err := c.Decide(context.Background(), "alpha", 0.6)
	if err != nil {
		t.Fatalf("Decide: %v", err)
	}
	if res.Tier != "hybrid" || res.Timeout <= 0 {
		t.Fatalf("decision %+v, want a positive hybrid-tier timeout", res)
	}
	if err := c.Observe(context.Background(), "alpha", 0.6, 2.0); err != nil {
		t.Fatalf("Observe: %v", err)
	}

	tenants, err := c.Tenants(context.Background())
	if err != nil {
		t.Fatalf("Tenants: %v", err)
	}
	if len(tenants) != 2 || tenants[0].Name != "alpha" || tenants[1].Name != "beta" {
		t.Fatalf("tenant listing %+v, want [alpha beta]", tenants)
	}
	if tenants[0].Decisions != 1 {
		t.Fatalf("alpha served %d decisions, want 1", tenants[0].Decisions)
	}

	if _, err := c.Decide(context.Background(), "nope", 0.6); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown tenant: err %v, want a terminal 404", err)
	}
}

func TestGlobalInFlightValveSheds(t *testing.T) {
	s := newTestServer(t, Options{Tenants: testTenants("a"), MaxInFlight: 1})
	// Hold the only slot, then probe.
	s.sem <- struct{}{}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/decide", "application/json",
		strings.NewReader(`{"tenant":"a","rate":0.5}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d under full in-flight valve, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After hint")
	}
	<-s.sem
}

func TestQueueFullSheds429(t *testing.T) {
	s := newTestServer(t, Options{Tenants: []TenantConfig{
		{Name: "slow", QueueDepth: 1, AnnealIter: 15, StallAfter: time.Minute},
	}})
	tn, _ := s.lookup("slow")
	// Wedge the worker long enough to fill the one-slot queue.
	tn.primary.SetDelay(300 * time.Millisecond)
	go tn.Decide(context.Background(), 0.5) // occupies the worker
	time.Sleep(50 * time.Millisecond)       // let it start
	go tn.Decide(context.Background(), 0.5) // fills the queue
	time.Sleep(50 * time.Millisecond)

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/decide", "application/json",
		strings.NewReader(`{"tenant":"slow","rate":0.5}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d with a full tenant queue, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After hint")
	}
	tn.primary.SetDelay(0)
}

func TestStalledTenantShedsAndReportsCritical(t *testing.T) {
	s := newTestServer(t, Options{Tenants: []TenantConfig{
		{Name: "wedged", AnnealIter: 15, StallAfter: 30 * time.Millisecond},
		{Name: "fine", AnnealIter: 15},
	}})
	tn, _ := s.lookup("wedged")
	tn.primary.SetDelay(500 * time.Millisecond)
	release := make(chan struct{})
	go func() {
		//lint:ignore errdrop the wedged decide's outcome is irrelevant; the stall it causes is the test
		_, _, _ = tn.Decide(context.Background(), 0.5)
		close(release)
	}()
	time.Sleep(100 * time.Millisecond) // past the stall budget

	if _, _, err := tn.Decide(context.Background(), 0.5); err != ErrStalled {
		t.Fatalf("decide against a stalled tenant: %v, want ErrStalled", err)
	}
	h := s.Health()
	found := false
	for _, p := range h.Problems {
		if p.Check == "wedged/tenant-stalled" && p.Severity == "critical" {
			found = true
		}
		if strings.HasPrefix(p.Check, "fine/") {
			t.Fatalf("healthy tenant polluted the report: %+v", p)
		}
	}
	if !found {
		t.Fatalf("health %+v missing wedged/tenant-stalled critical", h.Problems)
	}
	// The healthy tenant keeps serving while its neighbour is wedged —
	// the bulkhead property.
	fine, _ := s.lookup("fine")
	if _, _, err := fine.Decide(context.Background(), 0.5); err != nil {
		t.Fatalf("healthy tenant failed during neighbour stall: %v", err)
	}
	tn.primary.SetDelay(0)
	<-release
}

func TestPanicBulkheadDemotesAndSurvives(t *testing.T) {
	s := newTestServer(t, Options{Tenants: testTenants("crashy", "steady")})
	tn, _ := s.lookup("crashy")
	driveTenant(t, tn, 0, 3)
	if tn.Level() != online.LevelHybrid {
		t.Fatalf("level %v before the panic, want hybrid", tn.Level())
	}

	tn.primary.SetPanicky(true)
	_, _, err := tn.Decide(context.Background(), 0.9)
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("decide with a panicking model: err %v, want a recovered panic error", err)
	}
	if got, _ := tn.reg.Value("mdsprint_serve_panics_total"); got != 1 {
		t.Fatalf("panic counter %v, want 1", got)
	}
	if tn.Level() == online.LevelHybrid {
		t.Fatal("panicking model did not cost the tenant a demotion")
	}
	tn.primary.SetPanicky(false)

	// The demoted tenant still serves (from a lower tier), and the
	// neighbour never noticed.
	if _, lvl, err := tn.Decide(context.Background(), 0.9); err != nil || lvl == online.LevelHybrid {
		t.Fatalf("post-panic decide: to err=%v level=%v, want degraded success", err, lvl)
	}
	steady, _ := s.lookup("steady")
	if _, lvl, err := steady.Decide(context.Background(), 0.5); err != nil || lvl != online.LevelHybrid {
		t.Fatalf("neighbour after panic: err=%v level=%v, want healthy hybrid", err, lvl)
	}
}

func TestDeadlineExpiredInQueueSheds(t *testing.T) {
	s := newTestServer(t, Options{Tenants: testTenants("a")})
	tn, _ := s.lookup("a")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := tn.Decide(ctx, 0.5); err != ErrDeadline && err != context.Canceled {
		t.Fatalf("expired-ctx decide: %v, want ErrDeadline or ctx error", err)
	}
}

func TestHealthAggregationPrefixesTenant(t *testing.T) {
	s := newTestServer(t, Options{Tenants: testTenants("sick", "well")})
	tn, _ := s.lookup("sick")
	driveTenant(t, tn, 0, 2)
	tn.primary.SetFailing(true)
	if _, _, err := tn.Decide(context.Background(), 0.9); err != nil {
		t.Fatalf("decide during outage should demote and succeed: %v", err)
	}
	h := s.Health()
	if h.Healthy {
		t.Fatal("health reports healthy with a demoted tenant")
	}
	var sick, well int
	for _, p := range h.Problems {
		if strings.HasPrefix(p.Check, "sick/") {
			sick++
		}
		if strings.HasPrefix(p.Check, "well/") {
			well++
		}
	}
	if sick == 0 || well != 0 {
		t.Fatalf("problems %+v: want only sick/-prefixed checks", h.Problems)
	}
}

func TestReadinessGateAndDrain(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Options{
		Tenants:      testTenants("a"),
		SnapshotPath: filepath.Join(dir, "state.json"),
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/ready")
	if err != nil {
		t.Fatalf("GET ready: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ready %d before drain, want 200", resp.StatusCode)
	}

	tn, _ := s.lookup("a")
	driveTenant(t, tn, 0, 3)
	dctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	resp, err = http.Get(srv.URL + "/debug/ready")
	if err != nil {
		t.Fatalf("GET ready: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ready %d after drain, want 503", resp.StatusCode)
	}
	// Requests after drain are shed, not served.
	dresp, err := http.Post(srv.URL+"/v1/decide", "application/json",
		strings.NewReader(`{"tenant":"a","rate":0.5}`))
	if err != nil {
		t.Fatalf("POST after drain: %v", err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("decide after drain: %d, want 503", dresp.StatusCode)
	}
	// The drain snapshot landed.
	if _, ok, err := ReadSnapshot(filepath.Join(dir, "state.json")); err != nil || !ok {
		t.Fatalf("drain snapshot: ok=%v err=%v", ok, err)
	}
}

// TestReloadRejectsBadConfigWith400 pins the trust boundary on
// /v1/reload: a tenant set that is invalid as given gets 400 (so the
// client does not retry it) and leaves the running tenants untouched.
func TestReloadRejectsBadConfigWith400(t *testing.T) {
	s := newTestServer(t, Options{Tenants: testTenants("a", "b")})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	before := s.tenantList()

	for name, cfgs := range map[string][]TenantConfig{
		"empty tenant list": nil,
		"empty name":        {{Name: "a"}, {Name: ""}},
		"duplicate name":    {{Name: "a"}, {Name: "a"}},
		"bad tier_spec":     {{Name: "a", TierSpec: "bound=nope"}},
	} {
		body, err := json.Marshal(ReloadRequest{Tenants: cfgs})
		if err != nil {
			t.Fatal(err)
		}
		if code := postStatus(t, srv.URL+"/v1/reload", string(body)); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
		retries := 0
		c := &Client{BaseURL: srv.URL, OnRetry: func(int) { retries++ }}
		if err := c.Reload(context.Background(), cfgs); err == nil || retries != 0 {
			t.Errorf("%s: client reload err %v after %d retries, want an error on the first attempt", name, err, retries)
		}
		after := s.tenantList()
		if len(after) != len(before) || after[0] != before[0] || after[1] != before[1] {
			t.Fatalf("%s: tenant set changed by a rejected reload", name)
		}
	}
}

func TestReloadCarriesStateWithoutDroppingRequests(t *testing.T) {
	s := newTestServer(t, Options{Tenants: testTenants("keep", "retire")})
	tn, _ := s.lookup("keep")
	driveTenant(t, tn, 0, 5)
	demBefore, _ := tn.fc.Counts()
	chainBefore := tn.ledger.Chain()

	// Concurrent decides over HTTP throughout the reload: none may be
	// dropped. A decide that lands on the instance the swap retires is
	// answered with a retryable 503, which the client retries against
	// the new instance; any error the client returns fails the test.
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	stop := make(chan struct{})
	decided := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		defer close(errc)
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Decide(context.Background(), "keep", 0.55); err != nil {
				errc <- err
				return
			}
			if n == 0 {
				close(decided)
			}
		}
	}()
	select {
	case <-decided:
	case err := <-errc:
		t.Fatalf("decide failed before reload: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	newCfg := []TenantConfig{
		{Name: "keep", AnnealIter: 15, QueueDepth: 128}, // changed config
		{Name: "fresh", AnnealIter: 15},                 // added
		// "retire" dropped
	}
	if err := s.Reload(ctx, newCfg); err != nil {
		t.Fatalf("Reload: %v", err)
	}
	close(stop)
	if err := <-errc; err != nil {
		t.Fatalf("decide failed during reload: %v", err)
	}

	nt, ok := s.lookup("keep")
	if !ok || nt == tn {
		t.Fatal("reload did not swap in a new tenant instance")
	}
	if nt.cfg.QueueDepth != 128 {
		t.Fatalf("reloaded config QueueDepth %d, want 128", nt.cfg.QueueDepth)
	}
	// State carried over: the ledger chain continued, not restarted.
	if got := nt.ledger.Chain(); got == online.NewDecisionLedger().Chain() && chainBefore != got {
		t.Fatalf("reloaded tenant lost its ledger chain (got the empty chain %s)", got)
	}
	if dem, _ := nt.fc.Counts(); dem < demBefore {
		t.Fatalf("reloaded tenant lost demotion history: %d < %d", dem, demBefore)
	}
	if _, ok := s.lookup("retire"); ok {
		t.Fatal("retired tenant still routed")
	}
	if fresh, ok := s.lookup("fresh"); !ok {
		t.Fatal("added tenant not routed")
	} else if _, _, err := fresh.Decide(context.Background(), 0.5); err != nil {
		t.Fatalf("added tenant decide: %v", err)
	}
	if v, _ := s.reg.Value("mdsprint_serve_reloads_total"); v != 1 {
		t.Fatalf("reload counter %v, want 1", v)
	}
}

func TestFaultEndpointScriptsModels(t *testing.T) {
	s := newTestServer(t, Options{Tenants: testTenants("a")})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := &Client{BaseURL: srv.URL, MaxRetries: -1}

	if err := c.Fault(context.Background(), FaultRequest{Tenant: "a", Mode: "fail", Value: 1}); err != nil {
		t.Fatalf("Fault: %v", err)
	}
	tn, _ := s.lookup("a")
	if !tn.primary.failing.Load() {
		t.Fatal("fault endpoint did not script the outage")
	}
	if err := c.Fault(context.Background(), FaultRequest{Tenant: "a", Mode: "clear"}); err != nil {
		t.Fatalf("Fault clear: %v", err)
	}
	if tn.primary.failing.Load() {
		t.Fatal("clear did not reset the outage")
	}
	if err := c.Fault(context.Background(), FaultRequest{Tenant: "a", Mode: "bogus"}); err == nil {
		t.Fatal("unknown fault mode accepted")
	}
}

func TestMetricsEndpointScopes(t *testing.T) {
	s := newTestServer(t, Options{Tenants: testTenants("a")})
	tn, _ := s.lookup("a")
	driveTenant(t, tn, 0, 1)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func(url string) (int, string) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}
	code, body := get(srv.URL + "/metrics")
	if code != 200 || !strings.Contains(body, "mdsprint_serve_requests_total") {
		t.Fatalf("server metrics: %d %q", code, body[:min(len(body), 120)])
	}
	code, body = get(srv.URL + "/metrics?tenant=a")
	if code != 200 || !strings.Contains(body, "mdsprint_serve_decisions_total") {
		t.Fatalf("tenant metrics: %d missing decision counter", code)
	}
	code, _ = get(srv.URL + "/metrics?tenant=zzz")
	if code != 404 {
		t.Fatalf("unknown tenant metrics: %d, want 404", code)
	}
}

// postStatus POSTs body to url and returns the response status.
func postStatus(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	return resp.StatusCode
}

// TestBadObservationsNeverDemote pins the trust boundary on /v1/observe:
// a non-positive (or missing) rate or observed_rt is a client bug,
// answered 400 before it reaches the tenant worker, so the watchdog
// never scores it as a model failure.
func TestBadObservationsNeverDemote(t *testing.T) {
	s := newTestServer(t, Options{Tenants: testTenants("alpha")})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	// A decision first, so the tenant has a timeout to judge observations
	// against: from here on an accepted bad observation would count.
	if _, err := c.Decide(context.Background(), "alpha", 0.6); err != nil {
		t.Fatalf("Decide: %v", err)
	}
	bad := []string{
		`{"tenant":"alpha","rate":0.6}`,
		`{"tenant":"alpha","rate":0.6,"observed_rt":0}`,
		`{"tenant":"alpha","rate":0.6,"observed_rt":-3}`,
		`{"tenant":"alpha","observed_rt":2}`,
		`{"tenant":"alpha","rate":-0.5,"observed_rt":2}`,
	}
	for i := 0; i < 100; i++ {
		body := bad[i%len(bad)]
		if code := postStatus(t, srv.URL+"/v1/observe", body); code != http.StatusBadRequest {
			t.Fatalf("bad observe %d %s: status %d, want 400", i, body, code)
		}
	}
	tn, _ := s.lookup("alpha")
	if v := tn.m.observes.Value(); v != 0 {
		t.Fatalf("%v bad observations reached the worker, want 0", v)
	}
	snap, err := tn.Snapshot(context.Background())
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if snap.Demotions != 0 {
		t.Fatalf("%d demotions after bad observations, want 0", snap.Demotions)
	}
	res, err := c.Decide(context.Background(), "alpha", 0.6)
	if err != nil {
		t.Fatalf("Decide: %v", err)
	}
	if res.Tier != "hybrid" || res.Level != 0 {
		t.Fatalf("decision %+v after bad observations, want the hybrid tier", res)
	}
}

// TestBadDecideRejectedBeforeLedger: a decide with a non-positive or
// missing rate is answered 400 and leaves the decision ledger untouched;
// the next good decide is ledger record 1.
func TestBadDecideRejectedBeforeLedger(t *testing.T) {
	s := newTestServer(t, Options{Tenants: testTenants("alpha")})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for _, body := range []string{
		`{"tenant":"alpha"}`,
		`{"tenant":"alpha","rate":0}`,
		`{"tenant":"alpha","rate":-1}`,
	} {
		if code := postStatus(t, srv.URL+"/v1/decide", body); code != http.StatusBadRequest {
			t.Fatalf("bad decide %s: status %d, want 400", body, code)
		}
	}
	tn, _ := s.lookup("alpha")
	seq := func() int {
		t.Helper()
		snap, err := tn.Snapshot(context.Background())
		if err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		return snap.Ledger.Seq
	}
	if got := seq(); got != 0 {
		t.Fatalf("ledger seq %d after bad decides, want 0", got)
	}
	if code := postStatus(t, srv.URL+"/v1/decide", `{"tenant":"alpha","rate":0.6}`); code != http.StatusOK {
		t.Fatalf("good decide: status %d, want 200", code)
	}
	if got := seq(); got != 1 {
		t.Fatalf("ledger seq %d after one good decide, want 1", got)
	}
}
