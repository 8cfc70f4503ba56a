// Package mech models the sprinting mechanisms of Table 1(B) — DVFS with
// Pupil power capping, core scaling via taskset, EC2 P-state DVFS — plus
// the CPU throttling mechanism Section 4 uses for burstable instances.
//
// A mechanism determines, per workload class, (1) the sustained processing
// rate, (2) the marginal (whole-execution) sprint speedup, (3) whether the
// speedup comes from parallelism (and is therefore exposed to Amdahl
// phases), and (4) the toggle overhead paid when a sprint engages at
// runtime. The toggle overhead and phase interaction are runtime effects
// the paper's queue simulator deliberately eschews (Section 2.3); here
// they live in the ground-truth testbed only.
package mech

import (
	"fmt"
	"math"

	"mdsprint/internal/workload"
)

// Mechanism is one way of sprinting a processor.
type Mechanism interface {
	// Name identifies the mechanism (Table 1B IDs).
	Name() string
	// ParallelismBased reports whether the speedup comes from running
	// more threads (core scaling) rather than running faster (DVFS,
	// throttling). Parallelism-based sprints are clipped by the
	// workload's Amdahl phases.
	ParallelismBased() bool
	// ToggleOverhead is the wall-clock cost, in seconds, of engaging a
	// sprint mid-execution (voltage ramp, thread migration, cgroup
	// update). The testbed charges it; the model never sees it.
	ToggleOverhead() float64
	// SustainedQPH returns the class's sustained throughput under this
	// mechanism, in queries/hour.
	SustainedQPH(c *workload.Class) float64
	// MarginalSpeedup returns the whole-execution sprint speedup for
	// the class: sprint rate / sustained rate.
	MarginalSpeedup(c *workload.Class) float64
}

// DVFS is the paper's primary platform: a 16-core Xeon 2660 with Pupil
// power capping; sprinting raises the power cap from 44-70 W to 90-190 W.
// Table 1(C)'s throughput columns were measured on this mechanism, so it
// reads them directly.
type DVFS struct{}

func (DVFS) Name() string            { return "DVFS" }
func (DVFS) ParallelismBased() bool  { return false }
func (DVFS) ToggleOverhead() float64 { return 1.5 }

func (DVFS) SustainedQPH(c *workload.Class) float64 { return c.SustainedQPH }

func (DVFS) MarginalSpeedup(c *workload.Class) float64 { return c.DVFSSpeedup() }

// CoreScale doubles active cores from 8 to 16 at fixed 2.1 GHz. The
// speedup follows Amdahl's law with the class's serial fraction; doubling
// cores at most doubles the parallel portion's rate.
type CoreScale struct{}

func (CoreScale) Name() string            { return "CoreScale" }
func (CoreScale) ParallelismBased() bool  { return true }
func (CoreScale) ToggleOverhead() float64 { return 3.0 }

func (CoreScale) SustainedQPH(c *workload.Class) float64 {
	// Same host and baseline core count as the DVFS platform at its
	// sustained operating point.
	return c.SustainedQPH
}

func (CoreScale) MarginalSpeedup(c *workload.Class) float64 {
	f := c.SerialFraction
	return 1 / (f + (1-f)/2)
}

// EC2DVFS is the EC2 C-class instance sprinted by setting P-states
// directly: 1.4 GHz sustained, 2.0 GHz burst. The frequency ratio is
// discounted by the class's compute-boundness — memory-bound kernels waste
// most of a clock bump.
type EC2DVFS struct{}

// ec2FreqRatio is burst clock / sustained clock (2.0 / 1.4 GHz).
const ec2FreqRatio = 2.0 / 1.4

// ec2SustainedScale derates throughput versus the bare-metal Xeon: the
// instance runs its sustained state at a lower clock than the DVFS
// platform's sustained cap.
const ec2SustainedScale = 0.8

func (EC2DVFS) Name() string            { return "EC2DVFS" }
func (EC2DVFS) ParallelismBased() bool  { return false }
func (EC2DVFS) ToggleOverhead() float64 { return 0.8 }

func (EC2DVFS) SustainedQPH(c *workload.Class) float64 {
	return c.SustainedQPH * ec2SustainedScale
}

func (EC2DVFS) MarginalSpeedup(c *workload.Class) float64 {
	return 1 + (ec2FreqRatio-1)*c.ComputeBoundness
}

// Throttle is CPU throttling (Section 4.1): resource managers limit a
// workload to Fraction of the CPU; a sprint removes the limit. Sustained
// throughput is Fraction of the unthrottled (sprint) rate, and the nominal
// 1/Fraction speedup is capped by the class's memory-bandwidth ceiling.
// AWS T2.small corresponds to Throttle{Fraction: 0.20} (20% of a core,
// 5x sprint).
type Throttle struct {
	// Fraction of the CPU allowed at the sustained rate, in (0, 1].
	Fraction float64
}

// NewThrottle validates the throttle fraction.
func NewThrottle(fraction float64) Throttle {
	if fraction <= 0 || fraction > 1 || math.IsNaN(fraction) {
		panic(fmt.Sprintf("mech: throttle fraction %v outside (0,1]", fraction))
	}
	return Throttle{Fraction: fraction}
}

func (t Throttle) Name() string          { return fmt.Sprintf("Throttle%.0f%%", t.Fraction*100) }
func (Throttle) ParallelismBased() bool  { return false }
func (Throttle) ToggleOverhead() float64 { return 0.3 }

// unthrottledQPH is the class's full-speed throughput: the DVFS burst rate
// (Section 4.3 throttles Jacobi to 20% of "its sprint throughput on
// DVFS", 74 qph, giving 14.8 qph sustained).
func unthrottledQPH(c *workload.Class) float64 { return c.BurstQPH }

func (t Throttle) SustainedQPH(c *workload.Class) float64 {
	return t.Fraction * unthrottledQPH(c)
}

func (t Throttle) MarginalSpeedup(c *workload.Class) float64 {
	return math.Min(1/t.Fraction, c.MaxThrottleSpeedup)
}

// All returns the Table 1(B) mechanisms (DVFS, CoreScale, EC2DVFS). The
// Section 4 throttle mechanisms are constructed per-experiment with the
// throttle fraction under study.
func All() []Mechanism {
	return []Mechanism{DVFS{}, CoreScale{}, EC2DVFS{}}
}

// ByName resolves a Table 1(B) mechanism name.
func ByName(name string) (Mechanism, error) {
	for _, m := range All() {
		if m.Name() == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("mech: unknown mechanism %q (have DVFS, CoreScale, EC2DVFS)", name)
}
