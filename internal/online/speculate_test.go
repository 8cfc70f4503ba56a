package online

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mdsprint/internal/core"
	"mdsprint/internal/obs"
	"mdsprint/internal/profiler"
	"mdsprint/internal/tier"
)

// gateClock is the manual clock that gateRun's predictions advance by
// cost. Without overlap each prediction advances it. With overlap,
// predictions in flight together advance it once, as wall time would
// run, and each one also sleeps overlapSleep of real time so that a
// speculating search's two calls do overlap.
type gateClock struct {
	*obs.ManualClock
	cost    atomic.Int64 // nanoseconds
	overlap bool

	mu       sync.Mutex
	inflight int
}

const overlapSleep = 200 * time.Microsecond

// spend advances the clock for one prediction.
func (g *gateClock) spend() {
	if !g.overlap {
		g.Advance(time.Duration(g.cost.Load()))
		return
	}
	g.mu.Lock()
	g.inflight++
	g.mu.Unlock()
	time.Sleep(overlapSleep)
	g.mu.Lock()
	if g.inflight--; g.inflight == 0 {
		g.Advance(time.Duration(g.cost.Load()))
	}
	g.mu.Unlock()
}

// costlySurface is the synthetic surface with a prediction cost that
// shows only on its gateClock.
type costlySurface struct {
	*SurfaceModel
	clk *gateClock
}

// Predict implements core.Model.
func (m costlySurface) Predict(ds *profiler.Dataset, sc core.Scenario) (core.Prediction, error) {
	m.clk.spend()
	return m.SurfaceModel.Predict(ds, sc)
}

// gateSetup varies gateRun's controller.
type gateSetup struct {
	tiers      bool // a fresh tier estimator as FallbackConfig.Tiers
	modelTiers bool // a fresh tier estimator as the models' own (SetTiers)
	overlap    bool // see gateClock
}

// gateRun drives a fallback controller through one decision per entry of
// costs, each drifting past the retune threshold, over surface models
// whose predictions read that decision's cost on the controller's clock.
// It returns the ledger chain and how many predictions the primary
// served in each decision.
func gateRun(t *testing.T, costs []time.Duration, setup gateSetup) (chain string, served []uint64) {
	t.Helper()
	clk := &gateClock{ManualClock: obs.NewManualClock(time.Unix(0, 0)), overlap: setup.overlap}
	primary := NewSurfaceModel("p", DefaultServiceRate, DefaultSprintGain, DefaultSweetTimeout)
	fallback := NewSurfaceModel("f", DefaultServiceRate, DefaultSprintGain, DefaultSweetTimeout)
	newEstimator := func() *tier.Estimator {
		spec, err := tier.ParseTierSpec("")
		if err != nil {
			t.Fatal(err)
		}
		est, err := tier.New(spec, tier.Options{Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	var tiers *tier.Estimator
	if setup.tiers {
		tiers = newEstimator()
	}
	if setup.modelTiers {
		est := newEstimator()
		primary.SetTiers(est)
		fallback.SetTiers(est)
	}
	ledger := NewDecisionLedger()
	fc, err := NewFallbackController(FallbackConfig{
		Primary:    costlySurface{primary, clk},
		Fallback:   costlySurface{fallback, clk},
		Dataset:    &profiler.Dataset{ServiceRate: DefaultServiceRate, MarginalRate: DefaultServiceRate * (1 + DefaultSprintGain)},
		MaxTimeout: DefaultMaxTimeout,
		AnnealIter: 60,
		Seed:       9,
		Metrics:    obs.NewRegistry(),
		Ledger:     ledger,
		Tiers:      tiers,
		Clock:      clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range costs {
		clk.cost.Store(int64(c))
		rate := 0.4
		if i%2 == 1 {
			rate = 0.6
		}
		before := primary.Predicts()
		if _, err := fc.TimeoutCtx(context.Background(), rate); err != nil {
			t.Fatal(err)
		}
		served = append(served, primary.Predicts()-before)
	}
	return ledger.Chain(), served
}

// TestControllerSpeculationGate: a controller over untiered models
// scores ahead once two searches in a row have read predictions as
// costlier than speculateMinNanos (its first search counting twice), and
// its decisions stay the serial ones bit for bit. It keeps speculating
// when its speculative predictions overlap its own on the clock, as they
// do on a wall clock. Cheap predictions, a single costly search, tiered
// models (by the config or by the models themselves) and a single core
// keep the serial calls.
func TestControllerSpeculationGate(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	const n = 6
	costly := time.Duration(2 * speculateMinNanos)
	uniform := func(c time.Duration) []time.Duration {
		cs := make([]time.Duration, n)
		for i := range cs {
			cs[i] = c
		}
		return cs
	}
	// speculated reports, per decision, whether it served more
	// predictions than the serial controller of the same setup:
	// discarded speculation.
	speculated := func(name string, costs []time.Duration, setup gateSetup) []bool {
		serialChain, serial := gateRun(t, uniform(0), gateSetup{tiers: setup.tiers, modelTiers: setup.modelTiers})
		chain, served := gateRun(t, costs, setup)
		if chain != serialChain {
			t.Fatalf("%s: ledger chain %s, serial %s", name, chain, serialChain)
		}
		out := make([]bool, n)
		for i := range served {
			out[i] = served[i] > serial[i]
		}
		return out
	}
	// wantUntil checks that decisions from to to-1 speculated, and no other.
	wantUntil := func(name string, got []bool, from, to int) {
		t.Helper()
		for i, g := range got {
			if g != (i >= from && i < to) {
				t.Fatalf("%s: decisions that speculated %v, want those in [%d, %d)", name, got, from, to)
			}
		}
	}
	want := func(name string, got []bool, from int) {
		t.Helper()
		wantUntil(name, got, from, n)
	}
	want("costly", speculated("costly", uniform(costly), gateSetup{}), 1)
	// Half the calls of a speculating search overlap others: a reading
	// per call would fall to about half of 1.5 times the gate.
	want("costly, overlapping", speculated("costly, overlapping", uniform(3*speculateMinNanos/2), gateSetup{overlap: true}), 1)
	want("cheap", speculated("cheap", uniform(time.Duration(speculateMinNanos/2)), gateSetup{}), n)
	want("one costly search", speculated("one costly search", []time.Duration{0, 0, costly, 0, 0, 0}, gateSetup{}), n)
	want("costly from the third", speculated("costly from the third", []time.Duration{0, 0, costly, costly, costly, costly}, gateSetup{}), 4)
	// A speculating search reads a cost that fell to a fifth of the gate
	// as at most twice that: the decision after it is serial.
	cheaper := time.Duration(speculateMinNanos / 5)
	wantUntil("costly, then cheap", speculated("costly, then cheap", []time.Duration{costly, costly, costly, cheaper, cheaper, cheaper}, gateSetup{}), 1, 4)
	want("tiered", speculated("tiered", uniform(costly), gateSetup{tiers: true}), n)
	want("tiered models", speculated("tiered models", uniform(costly), gateSetup{modelTiers: true}), n)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want("GOMAXPROCS 1", speculated("GOMAXPROCS 1", uniform(costly), gateSetup{}), n)
}

// TestControllerBuiltDirectlyStaysSerial: only NewFallbackController
// marks a controller's model pure.
func TestControllerBuiltDirectlyStaysSerial(t *testing.T) {
	c := &Controller{callNanos: [2]int64{10 * speculateMinNanos, 10 * speculateMinNanos}}
	if c.speculate() {
		t.Fatal("a controller built directly speculates")
	}
}
