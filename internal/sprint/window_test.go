package sprint

import (
	"math"
	"testing"
)

func TestWindowRefillSnapsAfterIdleWindow(t *testing.T) {
	a := newAccountant(100, 0, windowRefill(600), initialLevel(10))
	// No accrual while idle before the window elapses.
	if got := a.Level(599); got != 10 {
		t.Fatalf("level before window = %v, want 10", got)
	}
	// Snap to full capacity once the sprint-free window completes.
	if got := a.Level(601); got != 100 {
		t.Fatalf("level after window = %v, want 100", got)
	}
}

func TestWindowRefillInterruptedBySprint(t *testing.T) {
	a := newAccountant(100, 0, windowRefill(600))
	a.StartSprint(0)
	a.StopSprint(500) // consumed 500, level 0 at t=500... capacity 100 -> clamped
	if got := a.Level(500); got != 0 {
		t.Fatalf("level after long sprint = %v, want 0 (hard clamp)", got)
	}
	// The idle window restarts at the sprint's end: not full at 500+599.
	if got := a.Level(1099); got != 0 {
		t.Fatalf("level before restarted window = %v, want 0", got)
	}
	if got := a.Level(1101); got != 100 {
		t.Fatalf("level after restarted window = %v, want 100", got)
	}
}

func TestWindowRefillRepeatedCycles(t *testing.T) {
	a := newAccountant(50, 0, windowRefill(100))
	for cycle := 0; cycle < 3; cycle++ {
		base := float64(cycle) * 200
		if !a.CanSprint(base) {
			t.Fatalf("cycle %d: cannot sprint with full budget", cycle)
		}
		a.StartSprint(base)
		a.StopSprint(base + 30) // spend 30
		if got := a.Level(base + 30); math.Abs(got-20) > 1e-9 {
			t.Fatalf("cycle %d: level %v, want 20", cycle, got)
		}
		// Window completes 100 s after the sprint stopped.
		if got := a.Level(base + 131); got != 50 {
			t.Fatalf("cycle %d: level %v after idle window, want 50", cycle, got)
		}
	}
}

func TestWindowRefillFrequentSprintsBlockSnap(t *testing.T) {
	// Sprints recurring faster than the window keep resetting the
	// idle clock, so the budget only drains — the behaviour that makes
	// over-aggressive timeouts starve their own supply under the
	// paper's semantics. Once drained, sprinting stops, the window
	// finally completes, and the budget snaps back.
	a := newAccountant(60, 0, windowRefill(600))
	now := 0.0
	// Ten 5-second sprints, 300 s apart (well under the 600 s window).
	for i := 0; i < 10; i++ {
		if !a.CanSprint(now) {
			t.Fatalf("sprint %d: budget empty early (level %v)", i, a.Level(now))
		}
		a.StartSprint(now)
		a.StopSprint(now + 5)
		now += 300
		want := 60 - 5*float64(i+1)
		if got := a.Level(now); math.Abs(got-want) > 1e-9 {
			t.Fatalf("after sprint %d: level %v, want %v (no snap may occur)", i, got, want)
		}
	}
	// Level is now 10 < MinEngage... still >= 1; two more sprints drain
	// it; then only a full idle window restores capacity.
	a.StartSprint(now)
	a.StopSprint(now + 10) // drained to 0
	now += 10
	if a.CanSprint(now + 599) {
		t.Fatal("budget returned before the idle window completed")
	}
	if !a.CanSprint(now + 601) {
		t.Fatal("budget did not snap back after a full idle window")
	}
}

// TestForPolicyRefillModes drives the accountant ResetFor builds for each
// refill mode through one sprint.
func TestForPolicyRefillModes(t *testing.T) {
	base := Policy{Timeout: 0, BudgetSeconds: 100, RefillTime: 500, Speedup: 2}
	var a Accountant

	a.ResetFor(base)
	a.StartSprint(0)
	a.StopSprint(50) // spent 50, accrued 10
	if got := a.Level(50); math.Abs(got-60) > 1e-9 {
		t.Fatalf("continuous level %v, want 60", got)
	}

	paused := base
	paused.Refill = RefillPaused
	a.ResetFor(paused)
	a.StartSprint(0)
	a.StopSprint(50) // spent 50, no accrual during sprint
	if got := a.Level(50); math.Abs(got-50) > 1e-9 {
		t.Fatalf("paused level %v, want 50", got)
	}

	window := base
	window.Refill = RefillWindow
	a.ResetFor(window)
	a.StartSprint(0)
	a.StopSprint(50)
	if got := a.Level(50); math.Abs(got-50) > 1e-9 {
		t.Fatalf("window level %v, want 50", got)
	}
	if got := a.Level(551); got != 100 {
		t.Fatalf("window level after idle window %v, want 100", got)
	}
}

// TestForPolicy checks that ResetFor gives a soft policy its full budget
// as capacity and lets it overdraw.
func TestForPolicy(t *testing.T) {
	var a Accountant
	a.ResetFor(Policy{Timeout: 60, BudgetSeconds: 720, RefillTime: 3600, Speedup: 5, Soft: true})
	if got := a.Level(0); got != 720 {
		t.Fatalf("soft policy starts at %v, want its 720 s capacity", got)
	}
	a.StartSprint(0)
	if got := a.Level(10000); got >= 0 {
		t.Fatalf("soft policy should overdraw, level %v", got)
	}
}

func TestRefillModeStrings(t *testing.T) {
	if RefillContinuous.String() != "continuous" || RefillPaused.String() != "paused" || RefillWindow.String() != "window" {
		t.Fatal("refill mode names drifted")
	}
}

// TestResetForMatchesOptions holds ResetFor, on an accountant left
// mid-sprint by an earlier run, to the accountant the tests' own
// constructor builds for every budget clause.
func TestResetForMatchesOptions(t *testing.T) {
	var a Accountant
	a.ResetFor(Policy{BudgetSeconds: 3, RefillTime: 7, Soft: true, Refill: RefillWindow})
	for _, refill := range []RefillMode{RefillContinuous, RefillPaused, RefillWindow} {
		for _, rt := range []float64{0, 500} {
			for _, soft := range []bool{false, true} {
				p := Policy{BudgetSeconds: 100, RefillTime: rt, Refill: refill, Soft: soft}
				var opts []func(*Accountant)
				if soft {
					opts = append(opts, softBudget)
				}
				switch {
				case refill == RefillPaused:
					opts = append(opts, pausedRefill)
				case refill == RefillWindow && rt > 0:
					opts = append(opts, windowRefill(rt))
				}
				want := newAccountant(p.BudgetSeconds, p.RefillRate(), opts...)
				a.StartSprint(a.last + 1)
				a.ResetFor(p)
				if a != *want {
					t.Fatalf("ResetFor(%+v) = %+v, want %+v", p, a, *want)
				}
			}
		}
	}
}
