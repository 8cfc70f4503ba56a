package mech

import (
	"math"
	"testing"

	"mdsprint/internal/workload"
)

func TestDVFSReadsTable1C(t *testing.T) {
	m := DVFS{}
	jacobi := workload.MustByName("Jacobi")
	if got := m.SustainedQPH(jacobi); got != 51 {
		t.Fatalf("DVFS sustained %v, want 51", got)
	}
	if got := m.MarginalSpeedup(jacobi); math.Abs(got-74.0/51) > 1e-9 {
		t.Fatalf("DVFS speedup %v, want %v", got, 74.0/51)
	}
}

func TestCoreScaleAmdahl(t *testing.T) {
	m := CoreScale{}
	jacobi := workload.MustByName("Jacobi")
	// Serial fraction 0.07: 1/(0.07 + 0.93/2) = 1.869..., the paper's
	// measured 1.87x core-scaling speedup for Jacobi (Section 3.3).
	if got := m.MarginalSpeedup(jacobi); math.Abs(got-1.87) > 0.01 {
		t.Fatalf("Jacobi core-scaling speedup %v, want ~1.87", got)
	}
	// Speedup can never exceed 2x when doubling cores.
	for _, c := range workload.Catalog() {
		if s := m.MarginalSpeedup(c); s > 2 || s < 1 {
			t.Errorf("%s: core-scaling speedup %v outside [1,2]", c.Name, s)
		}
	}
}

func TestCoreScaleOrdering(t *testing.T) {
	m := CoreScale{}
	// Sync-bound Leuk must benefit least; parallel SparkStream most.
	leuk := m.MarginalSpeedup(workload.MustByName("Leuk"))
	stream := m.MarginalSpeedup(workload.MustByName("SparkStream"))
	if leuk >= stream {
		t.Fatalf("Leuk speedup %v >= SparkStream %v", leuk, stream)
	}
}

func TestEC2DVFSSpeedupBounds(t *testing.T) {
	m := EC2DVFS{}
	for _, c := range workload.Catalog() {
		s := m.MarginalSpeedup(c)
		if s < 1 || s > ec2FreqRatio {
			t.Errorf("%s: EC2 speedup %v outside [1, %v]", c.Name, s, ec2FreqRatio)
		}
		if m.SustainedQPH(c) >= c.SustainedQPH {
			t.Errorf("%s: EC2 sustained rate should be derated", c.Name)
		}
	}
	// Fully compute-bound workloads get the whole frequency ratio.
	stream := workload.MustByName("SparkStream")
	if got := m.MarginalSpeedup(stream); math.Abs(got-ec2FreqRatio) > 1e-9 {
		t.Fatalf("SparkStream EC2 speedup %v, want %v", got, ec2FreqRatio)
	}
}

func TestThrottleMatchesSection43(t *testing.T) {
	// Jacobi throttled to 20% of its 74 qph sprint throughput:
	// sustained 14.8 qph, sprint rate 74 qph, 5x speedup.
	m := NewThrottle(0.20)
	jacobi := workload.MustByName("Jacobi")
	if got := m.SustainedQPH(jacobi); math.Abs(got-14.8) > 1e-9 {
		t.Fatalf("throttled sustained %v qph, want 14.8", got)
	}
	if got := m.MarginalSpeedup(jacobi); got != 5 {
		t.Fatalf("throttle speedup %v, want 5", got)
	}
}

func TestThrottleCappedByMemoryBound(t *testing.T) {
	m := NewThrottle(0.10) // nominal 10x
	mem := workload.MustByName("Mem")
	if got := m.MarginalSpeedup(mem); got != mem.MaxThrottleSpeedup {
		t.Fatalf("Mem throttle speedup %v, want cap %v", got, mem.MaxThrottleSpeedup)
	}
}

func TestThrottleValidation(t *testing.T) {
	for _, bad := range []float64{0, -0.5, 1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewThrottle(%v) did not panic", bad)
				}
			}()
			NewThrottle(bad)
		}()
	}
}

func TestParallelismFlags(t *testing.T) {
	if (DVFS{}).ParallelismBased() || (EC2DVFS{}).ParallelismBased() || (Throttle{Fraction: 0.2}).ParallelismBased() {
		t.Fatal("frequency mechanisms must not be parallelism-based")
	}
	if !(CoreScale{}).ParallelismBased() {
		t.Fatal("core scaling must be parallelism-based")
	}
}

func TestToggleOverheadsPositive(t *testing.T) {
	for _, m := range All() {
		if m.ToggleOverhead() <= 0 {
			t.Errorf("%s: toggle overhead %v must be positive", m.Name(), m.ToggleOverhead())
		}
	}
}

func TestByName(t *testing.T) {
	m, err := ByName("CoreScale")
	if err != nil || m.Name() != "CoreScale" {
		t.Fatalf("ByName(CoreScale) = %v, %v", m, err)
	}
	if _, err := ByName("Overclock"); err == nil {
		t.Fatal("expected error for unknown mechanism")
	}
}

func TestCurveIntegratesPhaseAndSpeedup(t *testing.T) {
	jacobi := workload.MustByName("Jacobi")
	// Under DVFS (frequency-based) Jacobi's curve is position-
	// independent; under core scaling the Amdahl tail bites.
	curve := func(m Mechanism) *workload.SprintCurve {
		return workload.NewSprintCurve(jacobi.Phases.Shape(m.ParallelismBased()), m.MarginalSpeedup(jacobi))
	}
	dvfs := curve(DVFS{})
	cs := curve(CoreScale{})
	if got := dvfs.EffectiveSpeedupFrom(0.95); math.Abs(got-jacobi.DVFSSpeedup()) > 0.02 {
		t.Errorf("DVFS late-sprint speedup %v, want ~%v", got, jacobi.DVFSSpeedup())
	}
	late := cs.EffectiveSpeedupFrom(0.89)
	full := cs.EffectiveSpeedupFrom(0)
	if late >= full-0.2 {
		t.Errorf("core-scaling late sprint %v should be well below full %v", late, full)
	}
}
