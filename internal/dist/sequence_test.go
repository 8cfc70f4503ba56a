package dist

import (
	"math"
	"strings"
	"testing"
)

func TestSequenceCyclesInOrder(t *testing.T) {
	d := NewSequence([]float64{1, 2, 3}, 0)
	r := NewRNG(1)
	want := []float64{1, 2, 3, 1, 2, 3, 1}
	for i, w := range want {
		if got := d.Sample(r); got != w {
			t.Fatalf("sample %d = %v, want %v", i, got, w)
		}
	}
	if d.Mean() != 2 {
		t.Fatalf("mean %v, want 2", d.Mean())
	}
}

func TestSequenceJitterBounds(t *testing.T) {
	d := NewSequence([]float64{10}, 0.2)
	r := NewRNG(5)
	varied := false
	for i := 0; i < 1000; i++ {
		v := d.Sample(r)
		if v < 8-1e-9 || v > 12+1e-9 {
			t.Fatalf("jittered sample %v outside [8,12]", v)
		}
		if math.Abs(v-10) > 0.01 {
			varied = true
		}
	}
	if !varied {
		t.Fatal("jitter produced no variation")
	}
}

func TestSequenceValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":     func() { NewSequence(nil, 0) },
		"jitter>=1": func() { NewSequence([]float64{1}, 1) },
		"negative":  func() { NewSequence([]float64{-1}, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestHyperexponentialFromMeanCV(t *testing.T) {
	for _, tc := range []struct{ mean, cv float64 }{
		{10, 1}, {50, 2}, {3, 3.5},
	} {
		d := HyperexponentialFromMeanCV(tc.mean, tc.cv)
		if m := d.Mean(); math.Abs(m-tc.mean)/tc.mean > 1e-9 {
			t.Errorf("mean %v cv %v: analytic mean %v", tc.mean, tc.cv, m)
		}
		// Empirical mean and CV.
		r := NewRNG(11)
		const n = 400000
		sum, sumsq := 0.0, 0.0
		for i := 0; i < n; i++ {
			v := d.Sample(r)
			sum += v
			sumsq += v * v
		}
		mean := sum / n
		cv := math.Sqrt(sumsq/n-mean*mean) / mean
		if math.Abs(mean-tc.mean)/tc.mean > 0.03 {
			t.Errorf("mean %v cv %v: sample mean %v", tc.mean, tc.cv, mean)
		}
		if math.Abs(cv-tc.cv)/tc.cv > 0.05 {
			t.Errorf("mean %v cv %v: sample cv %v", tc.mean, tc.cv, cv)
		}
	}
}

func TestHyperexponentialFromMeanCVValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { HyperexponentialFromMeanCV(0, 2) },
		func() { HyperexponentialFromMeanCV(10, 0.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestStringMethodsNamed(t *testing.T) {
	cases := map[string]Dist{
		"Exp":       NewExponential(2),
		"Det":       Deterministic{Value: 1},
		"Uniform":   Uniform{Lo: 0, Hi: 1},
		"Pareto":    Pareto{Xm: 1, Alpha: 2},
		"TruncPare": TruncatedPareto{Xm: 1, Alpha: 0.5, Max: 10},
		"LogNormal": LogNormal{Mu: 0, Sigma: 1},
		"Erlang":    Erlang{K: 2, Rate: 1},
		"HyperExp":  NewHyperexponential([]float64{0.5, 0.5}, []float64{1, 2}),
		"Empirical": NewEmpirical([]float64{1, 2}),
		"Sequence":  NewSequence([]float64{1}, 0),
		"*":         Scaled{Base: Deterministic{Value: 1}, Factor: 2},
	}
	for want, d := range cases {
		if !strings.Contains(d.String(), want) {
			t.Errorf("%T.String() = %q, want substring %q", d, d.String(), want)
		}
	}
}

func TestEmpiricalLen(t *testing.T) {
	if got := NewEmpirical([]float64{1, 2, 3}).Len(); got != 3 {
		t.Fatalf("Len %d, want 3", got)
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"exp rate 0":      func() { NewExponential(0) },
		"empirical empty": func() { NewEmpirical(nil) },
		"lognormal bad":   func() { LogNormalFromMeanCV(-1, 0.5) },
		"pareto-rate bad": func() { ParetoForRate(0, 0.5, 50) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
