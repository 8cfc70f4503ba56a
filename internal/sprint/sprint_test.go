package sprint

import (
	"math"
	"testing"
	"testing/quick"
)

func TestQPHRoundTrip(t *testing.T) {
	if got := QPH(3600); got != 1 {
		t.Fatalf("QPH(3600) = %v, want 1", got)
	}
	if got := ToQPH(QPH(87)); math.Abs(got-87) > 1e-9 {
		t.Fatalf("round trip = %v, want 87", got)
	}
}

func TestSprintingDisabled(t *testing.T) {
	cases := []struct {
		p    Policy
		want bool
	}{
		{Policy{Timeout: -1, BudgetSeconds: 10, Speedup: 2}, true},
		{Policy{Timeout: 0, BudgetSeconds: 10, Speedup: 2}, false},
		{Policy{Timeout: 10, BudgetSeconds: 0, Speedup: 2}, true},
		{Policy{Timeout: 10, BudgetSeconds: 10, Speedup: 1}, true},
		{Policy{Timeout: 10, BudgetSeconds: 10, Speedup: 3}, false},
	}
	for i, c := range cases {
		if got := c.p.SprintingDisabled(); got != c.want {
			t.Errorf("case %d: SprintingDisabled = %v, want %v", i, got, c.want)
		}
	}
}

func TestRefillRate(t *testing.T) {
	p := Policy{BudgetSeconds: 100, RefillTime: 500}
	if got := p.RefillRate(); got != 0.2 {
		t.Fatalf("refill rate %v, want 0.2", got)
	}
	if got := (Policy{BudgetSeconds: 100}).RefillRate(); got != 0 {
		t.Fatalf("zero refill time should imply rate 0, got %v", got)
	}
}

func TestBudgetFromPercentMatchesAWS(t *testing.T) {
	// AWS T2.small: 720 sprint-seconds per hour = 20% of a 3600 s window.
	if got := BudgetFromPercent(0.20, 3600); got != 720 {
		t.Fatalf("AWS budget = %v sprint-seconds, want 720", got)
	}
}

// Property: the budget BudgetFromPercent returns is pct of one refill
// window, so dividing by the window gives pct back.
func TestBudgetPercentRoundTripProperty(t *testing.T) {
	f := func(pctRaw, refillRaw uint16) bool {
		pct := float64(pctRaw%1000) / 1000
		refill := float64(refillRaw%10000) + 1
		return math.Abs(BudgetFromPercent(pct, refill)/refill-pct) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// newAccountant is the tests' own accountant constructor, independent
// of ResetFor: capacity and refill rate as given, full unless an option
// sets the level. TestResetForMatchesOptions holds ResetFor to it.
func newAccountant(capacity, refillRate float64, opts ...func(*Accountant)) *Accountant {
	a := &Accountant{capacity: capacity, refillRate: refillRate, level: capacity}
	for _, opt := range opts {
		opt(a)
	}
	return a
}

// pausedRefill pauses accrual while any sprint is active.
func pausedRefill(a *Accountant) { a.pauseWhileSprinting = true }

// softBudget lets the level go negative.
func softBudget(a *Accountant) { a.soft = true }

// initialLevel starts the bucket at level instead of full.
func initialLevel(level float64) func(*Accountant) {
	return func(a *Accountant) { a.level = level }
}

// windowRefill snaps the level to capacity after window seconds with no
// sprint, instead of accruing.
func windowRefill(window float64) func(*Accountant) {
	return func(a *Accountant) { a.windowRefill = window }
}

func TestAccountantStartsFull(t *testing.T) {
	a := newAccountant(100, 1)
	if got := a.Level(0); got != 100 {
		t.Fatalf("initial level %v, want 100", got)
	}
}

func TestAccountantDrainsDuringSprint(t *testing.T) {
	a := newAccountant(100, 0)
	a.StartSprint(0)
	if got := a.Level(30); got != 70 {
		t.Fatalf("level after 30 s sprint = %v, want 70", got)
	}
	a.StopSprint(40)
	if got := a.Level(100); got != 60 {
		t.Fatalf("level after stop = %v, want 60 (no refill)", got)
	}
}

func TestAccountantRefills(t *testing.T) {
	a := newAccountant(100, 2, initialLevel(10))
	if got := a.Level(20); got != 50 {
		t.Fatalf("level after 20 s refill = %v, want 50", got)
	}
	if got := a.Level(1000); got != 100 {
		t.Fatalf("level must clamp at capacity, got %v", got)
	}
}

func TestAccountantNetRateDuringSprint(t *testing.T) {
	// Refill 0.5/s, one sprint draining 1/s: net -0.5/s.
	a := newAccountant(100, 0.5)
	a.StartSprint(0)
	if got := a.Level(40); math.Abs(got-80) > 1e-9 {
		t.Fatalf("level = %v, want 80", got)
	}
}

func TestAccountantConcurrentSprints(t *testing.T) {
	a := newAccountant(100, 0)
	a.StartSprint(0)
	a.StartSprint(0)
	if got := a.Level(10); got != 80 {
		t.Fatalf("two sprints for 10 s: level %v, want 80", got)
	}
	a.StopSprint(10)
	if got := a.Level(20); got != 70 {
		t.Fatalf("one sprint for 10 more s: level %v, want 70", got)
	}
}

func TestAccountantTimeToEmpty(t *testing.T) {
	a := newAccountant(60, 0)
	a.StartSprint(0)
	if got := a.TimeToEmpty(0); got != 60 {
		t.Fatalf("TimeToEmpty = %v, want 60", got)
	}
	a.StopSprint(30)
	if got := a.TimeToEmpty(30); !math.IsInf(got, 1) {
		t.Fatalf("TimeToEmpty with no sprint = %v, want +Inf", got)
	}
}

func TestAccountantTimeToEmptyWithRefill(t *testing.T) {
	a := newAccountant(100, 0.5, initialLevel(10))
	a.StartSprint(0)
	// Net -0.5/s from level 10: empty in 20 s.
	if got := a.TimeToEmpty(0); math.Abs(got-20) > 1e-9 {
		t.Fatalf("TimeToEmpty = %v, want 20", got)
	}
}

func TestAccountantHardBudgetClampsAtZero(t *testing.T) {
	a := newAccountant(10, 0)
	a.StartSprint(0)
	if got := a.Level(10.0000001); got != 0 {
		t.Fatalf("tiny overshoot should clamp to 0, got %v", got)
	}
	if a.CanSprint(11) {
		t.Fatal("hard budget at zero must refuse new sprints")
	}
}

func TestAccountantSoftBudgetOverdraws(t *testing.T) {
	a := newAccountant(10, 0, softBudget)
	a.StartSprint(0)
	if got := a.Level(25); got != -15 {
		t.Fatalf("soft budget level = %v, want -15", got)
	}
	if !a.CanSprint(25) {
		t.Fatal("soft budget must always allow sprinting")
	}
	if got := a.TimeToEmpty(25); !math.IsInf(got, 1) {
		t.Fatalf("soft budget TimeToEmpty = %v, want +Inf", got)
	}
}

func TestAccountantPausedRefill(t *testing.T) {
	a := newAccountant(100, 2, initialLevel(50), pausedRefill)
	a.StartSprint(0)
	// With paused refill the net rate is -1/s, not +1/s.
	if got := a.Level(10); got != 40 {
		t.Fatalf("paused-refill level = %v, want 40", got)
	}
	a.StopSprint(10)
	if got := a.Level(20); got != 60 {
		t.Fatalf("after sprint ends refill resumes: level %v, want 60", got)
	}
}

// timeToLevel returns how long from now until a's bucket accrues to at
// least want sprint-seconds, or +Inf if it never will at the current
// rate: the accrual arithmetic TestAccountantTimeToLevel checks.
func timeToLevel(a *Accountant, now, want float64) float64 {
	a.advance(now)
	if want > a.capacity {
		return math.Inf(1)
	}
	if a.level >= want {
		return 0
	}
	rate := a.netRate()
	if rate <= 0 {
		return math.Inf(1)
	}
	return (want - a.level) / rate
}

func TestAccountantTimeToLevel(t *testing.T) {
	a := newAccountant(100, 2, initialLevel(10))
	if got := timeToLevel(a, 0, 50); got != 20 {
		t.Fatalf("TimeToLevel = %v, want 20", got)
	}
	if got := timeToLevel(a, 0, 5); got != 0 {
		t.Fatalf("already satisfied TimeToLevel = %v, want 0", got)
	}
	if got := timeToLevel(a, 0, 200); !math.IsInf(got, 1) {
		t.Fatalf("unreachable TimeToLevel = %v, want +Inf", got)
	}
	if got := a.Level(20); got != 50 {
		t.Fatalf("level after the predicted 20 s = %v, want 50", got)
	}
}

func TestAccountantStopWithoutStartPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("StopSprint without StartSprint did not panic")
		}
	}()
	newAccountant(10, 0).StopSprint(0)
}

func TestAccountantTimeBackwardsPanics(t *testing.T) {
	a := newAccountant(10, 1)
	a.Level(5)
	defer func() {
		if recover() == nil {
			t.Fatal("time regression did not panic")
		}
	}()
	a.Level(4)
}

// Property: level never exceeds capacity and, for hard budgets, never goes
// negative, under any interleaving of sprint starts/stops and queries.
func TestAccountantInvariantProperty(t *testing.T) {
	f := func(seed uint64, ops []uint8) bool {
		cap := 50.0
		a := newAccountant(cap, 0.7)
		now := 0.0
		active := 0
		for _, op := range ops {
			now += float64(op%17) / 3
			switch {
			case op%3 == 0 && a.CanSprint(now):
				a.StartSprint(now)
				active++
			case op%3 == 1 && active > 0:
				a.StopSprint(now)
				active--
			default:
				lvl := a.Level(now)
				if lvl < 0 || lvl > cap {
					return false
				}
			}
			// Hard budgets require the driver to stop sprints at
			// exhaustion, as the simulators do.
			if active > 0 {
				if tte := a.TimeToEmpty(now); !math.IsInf(tte, 1) && tte < 1e-9 {
					for active > 0 {
						a.StopSprint(now)
						active--
					}
				}
			}
		}
		lvl := a.Level(now)
		return lvl >= 0 && lvl <= cap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
