package workload

import (
	"fmt"

	"mdsprint/internal/dist"
	"mdsprint/internal/sprint"
)

// Component is one class's share of a query mix.
type Component struct {
	Class  *Class
	Weight float64
}

// Mix is a query mix: a weighted set of classes dispatched to one server.
// Mixing workloads causes cache and bandwidth interference, so the mix's
// sustained service rate falls below the weighted mean of the kernels in
// isolation (Section 3.4 measures 35 and 30 qph for Mix I and II, far
// below the isolated averages). Interference is modelled as a uniform
// service-time inflation factor calibrated to the published mix rates.
type Mix struct {
	Name         string
	Components   []Component
	Interference float64 // service-time multiplier, >= 1
}

// SingleClass wraps one class as a trivial mix with no interference.
func SingleClass(c *Class) Mix {
	return Mix{Name: c.Name, Components: []Component{{Class: c, Weight: 1}}, Interference: 1}
}

// NewMix builds a mix of equally consequential components whose weights
// are normalised to sum to 1. If targetQPH > 0 the interference factor is
// calibrated so the mix's sustained service rate equals targetQPH;
// otherwise interference is 1.
func NewMix(name string, comps []Component, targetQPH float64) Mix {
	if len(comps) == 0 {
		panic("workload: empty mix")
	}
	total := 0.0
	for _, c := range comps {
		if c.Weight <= 0 || c.Class == nil {
			panic("workload: mix components need positive weights and classes")
		}
		total += c.Weight
	}
	norm := make([]Component, len(comps))
	for i, c := range comps {
		norm[i] = Component{Class: c.Class, Weight: c.Weight / total}
	}
	m := Mix{Name: name, Components: norm, Interference: 1}
	if targetQPH > 0 {
		base := m.SustainedRate()
		target := sprint.QPH(targetQPH)
		if target > base {
			panic(fmt.Sprintf("workload: mix %s target %v qph exceeds interference-free rate %v qph",
				name, targetQPH, sprint.ToQPH(base)))
		}
		m.Interference = base / target
	}
	return m
}

// MixI is Section 3.4's first mix: 50% Jacobi, 50% SparkStream, with the
// measured sustained service rate of 35 qph.
func MixI() Mix {
	return NewMix("MixI", []Component{
		{Class: MustByName("Jacobi"), Weight: 0.5},
		{Class: MustByName("SparkStream"), Weight: 0.5},
	}, 35)
}

// MixII is Section 3.4's second mix: even split of Jacobi, SparkStream,
// KNN and BFS, with the measured sustained rate of 30 qph.
func MixII() Mix {
	return NewMix("MixII", []Component{
		{Class: MustByName("Jacobi"), Weight: 0.25},
		{Class: MustByName("SparkStream"), Weight: 0.25},
		{Class: MustByName("KNN"), Weight: 0.25},
		{Class: MustByName("BFS"), Weight: 0.25},
	}, 30)
}

// MixJacobiMem is the Jacobi+Mem mix Section 4.3 evaluates in Figure
// 12(B) (the figure caption says Jacobi & Stream but the body text's
// analysis — CPU throttling offering low speedup for Mem — requires Mem;
// we follow the text). No published rate, so interference is estimated at
// the MixI level.
func MixJacobiMem() Mix {
	m := NewMix("Jacobi+Mem", []Component{
		{Class: MustByName("Jacobi"), Weight: 0.5},
		{Class: MustByName("Mem"), Weight: 0.5},
	}, 0)
	m.Interference = MixI().Interference
	return m
}

// MeanServiceTime returns the expected per-query processing time of the
// mix at sustained speed, including interference, in seconds.
func (m Mix) MeanServiceTime() float64 {
	t := 0.0
	for _, c := range m.Components {
		t += c.Weight * c.Class.MeanServiceTime()
	}
	return t * m.Interference
}

// SustainedRate returns the mix's aggregate sustained service rate in
// queries/second (the inverse of the mean service time).
func (m Mix) SustainedRate() float64 { return 1 / m.MeanServiceTime() }

// SustainedQPH returns the sustained rate in queries/hour.
func (m Mix) SustainedQPH() float64 { return sprint.ToQPH(m.SustainedRate()) }

// IsSingle reports whether the mix has exactly one component.
func (m Mix) IsSingle() bool { return len(m.Components) == 1 }

// Pick draws a class according to the mix weights.
func (m Mix) Pick(r *dist.RNG) *Class { return m.Components[m.PickIndex(r)].Class }

// PickIndex draws a component index according to the mix weights, from
// the same single draw Pick makes.
func (m Mix) PickIndex(r *dist.RNG) int {
	u := r.Float64()
	acc := 0.0
	for i, c := range m.Components {
		acc += c.Weight
		if u < acc {
			return i
		}
	}
	return len(m.Components) - 1
}

// ServiceDist returns the service-time distribution of one class inside
// this mix at sustained speed: a log-normal with the class's CV, inflated
// by the mix's interference factor.
func (m Mix) ServiceDist(c *Class) dist.Dist {
	mean := c.MeanServiceTime() * m.Interference
	return dist.LogNormalFromMeanCV(mean, c.ServiceCV)
}

func (m Mix) String() string {
	if m.IsSingle() {
		return m.Name
	}
	return fmt.Sprintf("%s(%d classes, interference %.2f)", m.Name, len(m.Components), m.Interference)
}
