package fault

import (
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"mdsprint/internal/obs"
)

func TestItemRNGIndependentOfOrder(t *testing.T) {
	// The determinism backbone: item i's stream depends only on
	// (seed, channel, i), never on how many other items were drawn.
	forward := make([]float64, 8)
	for i := range forward {
		forward[i] = itemRNG(42, chanArrivals, uint64(i)).Float64()
	}
	for i := len(forward) - 1; i >= 0; i-- {
		if got := itemRNG(42, chanArrivals, uint64(i)).Float64(); got != forward[i] {
			t.Fatalf("item %d drew %v forward, %v backward", i, forward[i], got)
		}
	}
	// Distinct channels must decorrelate.
	if itemRNG(42, chanArrivals, 0).Float64() == itemRNG(42, chanHTTP, 0).Float64() {
		t.Fatal("channels share a stream")
	}
}

func TestBreakerStateMachine(t *testing.T) {
	reg := obs.NewRegistry()
	b := NewBreaker(BreakerConfig{
		Name: "test", FailureThreshold: 2, CooldownCalls: 3, HalfOpenSuccesses: 2,
		Metrics: reg,
	})
	if b.State() != Closed || !b.Allow() {
		t.Fatal("new breaker must be closed and allowing")
	}
	// A success resets the consecutive-failure count.
	b.Failure()
	b.Success()
	b.Failure()
	if b.State() != Closed {
		t.Fatal("tripped below the failure threshold")
	}
	b.Failure()
	if b.State() != Open {
		t.Fatal("did not trip at the failure threshold")
	}
	// Open: exactly CooldownCalls denials, then half-open.
	for i := 0; i < 3; i++ {
		if b.Allow() {
			t.Fatalf("open breaker allowed call %d", i)
		}
	}
	if b.State() != HalfOpen {
		t.Fatalf("state %s after cooldown, want half-open", b.State())
	}
	if !b.Allow() {
		t.Fatal("half-open breaker must admit probes")
	}
	// A probe failure re-opens immediately.
	b.Failure()
	if b.State() != Open {
		t.Fatal("probe failure did not re-open")
	}
	for i := 0; i < 3; i++ {
		b.Allow()
	}
	b.Success()
	if b.State() != Closed {
		b.Success()
	}
	if b.State() != Closed {
		t.Fatalf("state %s after probe successes, want closed", b.State())
	}
	if got := reg.Counter("mdsprint_fault_breaker_trips_total", "").Value(); got < 2 {
		t.Fatalf("trips counter %v, want >= 2", got)
	}
	if got := reg.Counter("mdsprint_fault_breaker_rejections_total", "").Value(); got < 6 {
		t.Fatalf("rejections counter %v, want >= 6", got)
	}
}

func TestBreakerStateStrings(t *testing.T) {
	for _, tc := range []struct {
		s    BreakerState
		want string
	}{
		{Closed, "closed"}, {Open, "open"}, {HalfOpen, "half-open"},
	} {
		if got := tc.s.String(); got != tc.want {
			t.Errorf("%d.String() = %q, want %q", int(tc.s), got, tc.want)
		}
	}
}

func TestArrivalFaultsDeterministicAcrossBatching(t *testing.T) {
	// One stream delivered whole must equal the same stream delivered in
	// arbitrary batch splits: fault decisions key on the running arrival
	// index, not the Perturb call boundaries.
	times := make([]float64, 200)
	for i := range times {
		times[i] = float64(i) * 0.5
	}
	cfg := ArrivalFaultConfig{Seed: 77, BurstProb: 0.1, BurstSize: 3, Metrics: obs.NewRegistry()}
	whole := NewArrivalFaults(cfg).Perturb(times)
	split := NewArrivalFaults(cfg)
	var pieced []float64
	for lo := 0; lo < len(times); lo += 7 {
		hi := lo + 7
		if hi > len(times) {
			hi = len(times)
		}
		pieced = append(pieced, split.Perturb(times[lo:hi])...)
	}
	if len(whole) != len(pieced) {
		t.Fatalf("batched replay length %d vs %d", len(pieced), len(whole))
	}
	for i := range whole {
		if math.Abs(whole[i]-pieced[i]) > 0 {
			t.Fatalf("batched replay diverged at %d: %v vs %v", i, pieced[i], whole[i])
		}
	}
	if len(whole) <= len(times) {
		t.Fatalf("burst prob 0.1 injected nothing (%d arrivals out)", len(whole))
	}
	for i := 1; i < len(whole); i++ {
		if whole[i] < whole[i-1] {
			t.Fatalf("output not ascending at %d: %v < %v", i, whole[i], whole[i-1])
		}
	}
}

// stubTransport records how many requests reached the "upstream".
type stubTransport struct{ calls int }

func (s *stubTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s.calls++
	return &http.Response{
		StatusCode: http.StatusOK,
		Body:       io.NopCloser(strings.NewReader("ok")),
		Request:    req,
	}, nil
}

func TestRoundTripperInjectsScriptedFaults(t *testing.T) {
	base := &stubTransport{}
	reg := obs.NewRegistry()
	rt := NewRoundTripper(base, HTTPFaultConfig{Seed: 31, DropProb: 0.3, ErrorProb: 0.3, Metrics: reg})
	req, err := http.NewRequest(http.MethodGet, "http://example.invalid/q", nil)
	if err != nil {
		t.Fatal(err)
	}
	var drops, fives, oks int
	for i := 0; i < 200; i++ {
		resp, err := rt.RoundTrip(req)
		switch {
		case err != nil:
			if !strings.Contains(err.Error(), "injected connection drop") {
				t.Fatalf("unexpected transport error: %v", err)
			}
			drops++
		case resp.StatusCode == http.StatusServiceUnavailable:
			fives++
			if cerr := resp.Body.Close(); cerr != nil {
				t.Fatal(cerr)
			}
		default:
			oks++
			if cerr := resp.Body.Close(); cerr != nil {
				t.Fatal(cerr)
			}
		}
	}
	if drops == 0 || fives == 0 || oks == 0 {
		t.Fatalf("fault mix drops=%d fives=%d oks=%d, want all three", drops, fives, oks)
	}
	// Dropped and injected-5xx requests must never reach the upstream.
	if base.calls != oks {
		t.Fatalf("upstream saw %d calls, want %d (faulted requests must not leak)", base.calls, oks)
	}
	if got := reg.Counter("mdsprint_fault_http_drops_total", "").Value(); int(got) != drops {
		t.Fatalf("drop counter %v, want %d", got, drops)
	}
}

func TestRoundTripperDefaultBase(t *testing.T) {
	rt := NewRoundTripper(nil, HTTPFaultConfig{Seed: 1, DropProb: 1, Metrics: obs.NewRegistry()})
	req, err := http.NewRequest(http.MethodGet, "http://example.invalid/", nil)
	if err != nil {
		t.Fatal(err)
	}
	// DropProb 1 faults before the default transport would dial out.
	if _, rerr := rt.RoundTrip(req); rerr == nil {
		t.Fatal("expected an injected drop")
	}
}

func TestScenarioRegistry(t *testing.T) {
	scs := Scenarios()
	if len(scs) < 4 {
		t.Fatalf("only %d built-in scenarios", len(scs))
	}
	for i := 1; i < len(scs); i++ {
		if scs[i-1].Name >= scs[i].Name {
			t.Fatalf("registry not in name order: %q before %q", scs[i-1].Name, scs[i].Name)
		}
	}
	for _, sc := range scs {
		if sc.Steps() <= 0 {
			t.Errorf("scenario %q has no steps", sc.Name)
		}
		got, err := ScenarioByName(sc.Name)
		if err != nil || got.Seed != sc.Seed {
			t.Errorf("ScenarioByName(%q) = %+v, %v", sc.Name, got, err)
		}
	}
	if _, err := ScenarioByName("no-such-script"); err == nil {
		t.Fatal("expected an error for an unknown scenario")
	}
	// Mutating the returned slice must not corrupt the registry.
	scs[0].Seed = 999999
	if again, err := ScenarioByName(scs[0].Name); err != nil || again.Seed == 999999 {
		t.Fatal("Scenarios() exposed the registry's backing array")
	}
}

func TestScenarioExpectLevelsInRange(t *testing.T) {
	for _, sc := range Scenarios() {
		if sc.Expect.MaxLevel < LevelHybridIdx || sc.Expect.MaxLevel > LevelStaticIdx ||
			sc.Expect.EndLevel < LevelHybridIdx || sc.Expect.EndLevel > LevelStaticIdx {
			t.Errorf("scenario %q expectation out of range: %+v", sc.Name, sc.Expect)
		}
		if sc.Expect.EndLevel > sc.Expect.MaxLevel {
			t.Errorf("scenario %q ends deeper than its max: %+v", sc.Name, sc.Expect)
		}
	}
}

// TestBreakerSnapshotRestore pins the persistence surface in-package:
// a restored breaker continues the exact call sequence of the original
// (the daemon-level bit-identity test builds on this), bad snapshots
// are rejected without touching state, and the zero config resolves to
// its documented defaults.
func TestBreakerSnapshotRestore(t *testing.T) {
	mk := func() *Breaker {
		return NewBreaker(BreakerConfig{
			Name: "snap", FailureThreshold: 2, CooldownCalls: 3, HalfOpenSuccesses: 2,
			Metrics: obs.NewRegistry(),
		})
	}
	orig := mk()
	orig.Failure()
	orig.Failure() // trips open
	orig.Allow()   // one denial into the cooldown
	snap := orig.Snapshot()
	if snap.State != int(Open) || snap.Denied != 1 {
		t.Fatalf("snapshot = %+v, want open with 1 denial", snap)
	}

	restored := mk()
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	// Both breakers must now walk the same sequence: two more denials
	// reach the cooldown, then a probe is admitted.
	for _, b := range []*Breaker{orig, restored} {
		if b.Allow() || b.Allow() {
			t.Fatal("open breaker allowed a call mid-cooldown")
		}
		if b.State() != HalfOpen || !b.Allow() {
			t.Fatalf("state %s after cooldown, want half-open probe", b.State())
		}
	}

	// Rejected snapshots leave the breaker unchanged.
	before := restored.Snapshot()
	for _, bad := range []BreakerSnapshot{
		{State: -1},
		{State: int(HalfOpen) + 1},
		{State: int(Closed), Failures: -1},
		{State: int(Closed), Denied: -1},
		{State: int(Closed), ProbeOK: -1},
	} {
		if err := restored.Restore(bad); err == nil {
			t.Fatalf("Restore(%+v) accepted an invalid snapshot", bad)
		}
	}
	if restored.Snapshot() != before {
		t.Fatal("failed Restore mutated the breaker")
	}

	// The zero config resolves to the documented defaults.
	def := BreakerConfig{}.withDefaults()
	if def.Name != "breaker" || def.FailureThreshold != 3 ||
		def.CooldownCalls != 8 || def.HalfOpenSuccesses != 2 {
		t.Fatalf("withDefaults() = %+v", def)
	}
}
