package dist

import (
	"math"
	"testing"
)

// TestSecondMomentAgainstSampling verifies every closed-form second
// moment against a Monte-Carlo estimate from the distribution's own
// Sample — the moments feed the Pollaczek–Khinchine surrogate, so a
// wrong one silently corrupts analytic-tier answers.
func TestSecondMomentAgainstSampling(t *testing.T) {
	cases := []struct {
		name string
		d    Dist
		tol  float64
	}{
		{"exp", NewExponential(0.8), 0.03},
		{"det", Deterministic{Value: 3.5}, 1e-12},
		{"uniform", Uniform{Lo: 1, Hi: 4}, 0.02},
		{"erlang", Erlang{K: 4, Rate: 2}, 0.02},
		{"lognormal", LogNormalFromMeanCV(2, 0.5), 0.04},
		{"hyperexp", HyperexponentialFromMeanCV(1, 2), 0.08},
		{"pareto", Pareto{Xm: 1, Alpha: 4}, 0.05},
		{"tpareto", TruncatedPareto{Xm: 1, Alpha: 1.5, Max: 20}, 0.05},
		{"tpareto-alpha2", TruncatedPareto{Xm: 1, Alpha: 2, Max: 50}, 0.06},
		{"empirical", NewEmpirical([]float64{1, 2, 2, 5, 9}), 0.03},
		{"scaled", Scaled{Base: NewExponential(1), Factor: 2.5}, 0.03},
		{"sequence", NewSequence([]float64{1, 2, 3}, 0.2), 0.02},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			want, ok := SecondMoment(tc.d)
			if !ok {
				t.Fatalf("SecondMoment(%s) not available", tc.d)
			}
			var rng RNG
			rng.Reseed(7)
			const n = 400000
			sum := 0.0
			for i := 0; i < n; i++ {
				v := tc.d.Sample(&rng)
				sum += v * v
			}
			got := sum / n
			if rel := math.Abs(got-want) / want; rel > tc.tol {
				t.Errorf("%s: sampled E[X^2] %.5g vs closed form %.5g (rel err %.3f > %.3f)",
					tc.d, got, want, rel, tc.tol)
			}
		})
	}
}

// TestSecondMomentDivergent pins the heavy-tail contract: Pareto with
// alpha <= 2 reports +Inf (trustworthy, but unusable for mean-wait
// formulas), and propagation through Scaled keeps it infinite.
func TestSecondMomentDivergent(t *testing.T) {
	m2, ok := SecondMoment(Pareto{Xm: 1, Alpha: 1.5})
	if !ok || !math.IsInf(m2, 1) {
		t.Fatalf("Pareto(alpha=1.5) second moment = %v, %v; want +Inf, true", m2, ok)
	}
	m2, ok = SecondMoment(Scaled{Base: Pareto{Xm: 1, Alpha: 2}, Factor: 3})
	if !ok || !math.IsInf(m2, 1) {
		t.Fatalf("scaled Pareto(alpha=2) second moment = %v, %v; want +Inf, true", m2, ok)
	}
}

// TestSecondMomentUnavailable pins the ok=false path for wrappers whose
// component lacks a closed form.
func TestSecondMomentUnavailable(t *testing.T) {
	unknown := Scaled{Base: fakeDist{}, Factor: 2}
	if _, ok := SecondMoment(unknown); ok {
		t.Fatal("scaling an unknown distribution must report ok=false")
	}
	if _, ok := SecondMoment(fakeDist{}); ok {
		t.Fatal("unknown distribution must report ok=false")
	}
}

// fakeDist is a catalog outsider with no second moment.
type fakeDist struct{}

func (fakeDist) Sample(*RNG) float64 { return 1 }
func (fakeDist) Mean() float64       { return 1 }
func (fakeDist) String() string      { return "fake" }
