package online

import (
	"context"
	"math"
	"testing"

	"mdsprint/internal/fault"
	"mdsprint/internal/obs"
	"mdsprint/internal/profiler"
)

// snapshotHarness builds a FallbackController on the synthetic chaos
// surface with scriptable primary bias/outage, plus its breaker and
// ledger, for continuation tests.
type snapshotHarness struct {
	fc      *FallbackController
	breaker *fault.Breaker
	ledger  *DecisionLedger
	primary *SurfaceModel
}

func newSnapshotHarness(t *testing.T, seed uint64) *snapshotHarness {
	t.Helper()
	const mu, gain, sweet = 1.0, 0.8, 20.0
	primary := NewSurfaceModel("p", mu, gain, sweet)
	reg := obs.NewRegistry()
	br := fault.NewBreaker(fault.BreakerConfig{Name: "snapshot-test", FailureThreshold: 1, Metrics: reg})
	ledger := NewBoundedDecisionLedger(64)
	fc, err := NewFallbackController(FallbackConfig{
		Primary:  primary,
		Fallback: NewSurfaceModel("f", mu, gain, sweet),
		Dataset:  &profiler.Dataset{ServiceRate: mu, MarginalRate: mu * (1 + gain)},
		Seed:     seed, MaxTimeout: 60, AnnealIter: 20,
		Breaker: br, Metrics: reg, Ledger: ledger,
	})
	if err != nil {
		t.Fatalf("NewFallbackController: %v", err)
	}
	return &snapshotHarness{fc: fc, breaker: br, ledger: ledger, primary: primary}
}

// drive runs steps decisions with slowly drifting rates and honest
// observations, returning the decided timeouts.
func (h *snapshotHarness) drive(t *testing.T, start, steps int) []float64 {
	t.Helper()
	out := make([]float64, 0, steps)
	for i := start; i < start+steps; i++ {
		rate := 0.5 + 0.3*math.Sin(float64(i)/7)
		to, err := h.fc.TimeoutCtx(context.Background(), rate)
		if err != nil {
			t.Fatalf("step %d: Timeout: %v", i, err)
		}
		h.fc.Observe(rate, SurfaceRT(1, 0.8, 20, rate, to))
		out = append(out, to)
	}
	return out
}

// TestSnapshotRestoreContinuesBitIdentically is the crash-safety
// contract: snapshot a controller mid-run, rebuild from scratch,
// restore, and the continuation's decisions and ledger chain are
// bit-identical to an uninterrupted run.
func TestSnapshotRestoreContinuesBitIdentically(t *testing.T) {
	const seed, pre, post = 42, 30, 30

	uninterrupted := newSnapshotHarness(t, seed)
	uninterrupted.drive(t, 0, pre)
	wantTO := uninterrupted.drive(t, pre, post)

	crashed := newSnapshotHarness(t, seed)
	crashed.drive(t, 0, pre)
	fcState := crashed.fc.State()
	brState := crashed.breaker.Snapshot()
	ledState := crashed.ledger.State()

	restored := newSnapshotHarness(t, seed)
	if err := restored.fc.Restore(fcState); err != nil {
		t.Fatalf("FallbackController.Restore: %v", err)
	}
	if err := restored.breaker.Restore(brState); err != nil {
		t.Fatalf("Breaker.Restore: %v", err)
	}
	if err := restored.ledger.Restore(ledState); err != nil {
		t.Fatalf("DecisionLedger.Restore: %v", err)
	}
	gotTO := restored.drive(t, pre, post)

	for i := range wantTO {
		if gotTO[i] != wantTO[i] {
			t.Fatalf("decision %d after restore: timeout %v, uninterrupted run chose %v",
				pre+i, gotTO[i], wantTO[i])
		}
	}
	if got, want := restored.ledger.Chain(), uninterrupted.ledger.Chain(); got != want {
		t.Fatalf("ledger chain after restore %s, uninterrupted %s", got, want)
	}
	if got, want := restored.ledger.Len(), post; got != want {
		t.Fatalf("restored ledger Len() = %d, want %d decisions since restore", got, want)
	}
}

// TestSnapshotRestoreCarriesDegradedState checks a snapshot taken while
// demoted restores the level, the banked timeout and the breaker
// position.
func TestSnapshotRestoreCarriesDegradedState(t *testing.T) {
	h := newSnapshotHarness(t, 7)
	h.drive(t, 0, 12)
	h.primary.SetFailing(true)
	if _, err := h.fc.TimeoutCtx(context.Background(), 0.9); err != nil {
		t.Fatalf("decision during outage: %v", err)
	}
	if h.fc.Level() == LevelHybrid {
		t.Fatal("scripted outage did not demote")
	}
	st := h.fc.State()
	br := h.breaker.Snapshot()

	r := newSnapshotHarness(t, 7)
	if err := r.fc.Restore(st); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if err := r.breaker.Restore(br); err != nil {
		t.Fatalf("breaker Restore: %v", err)
	}
	if got, want := r.fc.Level(), h.fc.Level(); got != want {
		t.Fatalf("restored level %v, want %v", got, want)
	}
	if got, want := r.breaker.State(), h.breaker.State(); got != want {
		t.Fatalf("restored breaker %v, want %v", got, want)
	}
	gd, gp := r.fc.Counts()
	wd, wp := h.fc.Counts()
	if gd != wd || gp != wp {
		t.Fatalf("restored counts %d/%d, want %d/%d", gd, gp, wd, wp)
	}
}

// TestSnapshotRestoreRejectsBadState checks a corrupt snapshot cannot
// half-restore a controller.
func TestSnapshotRestoreRejectsBadState(t *testing.T) {
	h := newSnapshotHarness(t, 3)
	h.drive(t, 0, 5)
	before := h.fc.State()

	bad := before
	bad.Level = 99
	if err := h.fc.Restore(bad); err == nil {
		t.Fatal("out-of-range level restored without error")
	}
	bad = before
	bad.Active.Residuals = []float64{math.NaN()}
	if err := h.fc.Restore(bad); err == nil {
		t.Fatal("NaN residual restored without error")
	}
	if got := h.fc.State(); got.Level != before.Level || got.Demotions != before.Demotions {
		t.Fatalf("failed restore mutated the controller: %+v != %+v", got, before)
	}

	if err := h.ledger.Restore(LedgerState{Seq: -1, Chain: "0"}); err == nil {
		t.Fatal("negative ledger seq restored without error")
	}
	if err := h.ledger.Restore(LedgerState{Seq: 1, Chain: "not-hex"}); err == nil {
		t.Fatal("unparsable chain restored without error")
	}
	if err := h.breaker.Restore(fault.BreakerSnapshot{State: 5}); err == nil {
		t.Fatal("out-of-range breaker state restored without error")
	}
}

// TestWatchdogStateRoundTrip checks the evidence window survives a
// wrap-around snapshot.
func TestWatchdogStateRoundTrip(t *testing.T) {
	w := NewWatchdog(WatchdogConfig{Window: 4})
	for _, r := range []float64{0.5, 0.4, 0.1, 0.1, 0.1} { // wraps once
		w.push(r)
	}
	st := w.State()
	if want := []float64{0.4, 0.1, 0.1, 0.1}; len(st.Residuals) != len(want) {
		t.Fatalf("snapshot kept %d residuals, want %d", len(st.Residuals), len(want))
	} else {
		for i := range want {
			if st.Residuals[i] != want[i] {
				t.Fatalf("residuals %v, want %v (oldest first)", st.Residuals, want)
			}
		}
	}
	r := NewWatchdog(WatchdogConfig{Window: 4})
	if err := r.Restore(st); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got, want := r.MeanResidual(), w.MeanResidual(); got != want {
		t.Fatalf("restored mean residual %v, want %v", got, want)
	}
	if got, want := r.streak, w.streak; got != want {
		t.Fatalf("restored streak %d, want %d", got, want)
	}
}
