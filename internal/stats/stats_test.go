package stats

import (
	"math"
	"testing"
	"testing/quick"

	"mdsprint/internal/dist"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestMeanVarianceBasics(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Errorf("Variance = %v, want 4", v)
	}
	if sd := Stddev(xs); sd != 2 {
		t.Errorf("Stddev = %v, want 2", sd)
	}
	if cv := CoV(xs); !almostEqual(cv, 0.4, 1e-12) {
		t.Errorf("CoV = %v, want 0.4", cv)
	}
}

func TestEmptyInputsReturnNaN(t *testing.T) {
	for name, v := range map[string]float64{
		"Mean":     Mean(nil),
		"Variance": Variance(nil),
		"Median":   Median(nil),
		"CoV":      CoV(nil),
		"CDFAt":    CDFAt(nil, 1),
	} {
		if !math.IsNaN(v) {
			t.Errorf("%s(empty) = %v, want NaN", name, v)
		}
	}
}

func TestCoVZeroMean(t *testing.T) {
	if cv := CoV([]float64{-1, 1}); !math.IsInf(cv, 1) {
		t.Errorf("CoV zero-mean varying = %v, want +Inf", cv)
	}
	if cv := CoV([]float64{0, 0, 0}); cv != 0 {
		t.Errorf("CoV all-zero = %v, want 0", cv)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3, 20}, {0.25, 17.5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Quantile mutated input: %v", xs)
	}
}

func TestQuantileOutOfRange(t *testing.T) {
	if !math.IsNaN(Quantile([]float64{1}, -0.1)) || !math.IsNaN(Quantile([]float64{1}, 1.1)) {
		t.Fatal("out-of-range q should return NaN")
	}
}

// Property: for any data, Min <= Quantile(q) <= Max and quantiles are
// monotone in q.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, q1Raw, q2Raw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			xs[i] = math.Mod(v, 1e6)
		}
		q1 := float64(q1Raw) / 255
		q2 := float64(q2Raw) / 255
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		v1, v2 := Quantile(xs, q1), Quantile(xs, q2)
		s := Summarize(xs)
		return v1 <= v2+1e-9 && v1 >= s.Min-1e-9 && v2 <= s.Max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAbsRelError(t *testing.T) {
	cases := []struct{ pred, obs, want float64 }{
		{110, 100, 0.1},
		{90, 100, 0.1},
		{100, 100, 0},
		{0, 0, 0},
		{-50, 100, 1.5},
	}
	for _, c := range cases {
		if got := AbsRelError(c.pred, c.obs); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("AbsRelError(%v,%v) = %v, want %v", c.pred, c.obs, got, c.want)
		}
	}
	if !math.IsInf(AbsRelError(1, 0), 1) {
		t.Error("AbsRelError(1,0) should be +Inf")
	}
}

func TestMedianAbsRelError(t *testing.T) {
	pred := []float64{110, 100, 130}
	obs := []float64{100, 100, 100}
	if got := MedianAbsRelError(pred, obs); !almostEqual(got, 0.1, 1e-12) {
		t.Fatalf("MedianAbsRelError = %v, want 0.1", got)
	}
}

func TestAbsRelErrorsPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	AbsRelErrors([]float64{1}, []float64{1, 2})
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := Summarize(xs)
	if s.N != 1000 || s.Min != 1 || s.Max != 1000 {
		t.Fatalf("bad extremes: %+v", s)
	}
	if !almostEqual(s.Median, 500.5, 1e-9) {
		t.Errorf("median %v, want 500.5", s.Median)
	}
	if !almostEqual(s.P99, 990.01, 0.1) {
		t.Errorf("p99 %v, want ~990", s.P99)
	}
	if !almostEqual(s.Mean, 500.5, 1e-9) {
		t.Errorf("mean %v, want 500.5", s.Mean)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || !math.IsNaN(s.Mean) || !math.IsNaN(s.P99) {
		t.Fatalf("empty summary should be NaN-filled: %+v", s)
	}
}

func TestCDFAtAndFractionAbove(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := CDFAt(xs, 2.5); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("CDFAt = %v", got)
	}
	if got := FractionAbove(xs, 3); !almostEqual(got, 0.25, 1e-12) {
		t.Errorf("FractionAbove = %v", got)
	}
	// CDFAt(v) + FractionAbove(v) == 1 for any v.
	for _, v := range []float64{0, 1, 2.5, 4, 10} {
		if s := CDFAt(xs, v) + FractionAbove(xs, v); !almostEqual(s, 1, 1e-12) {
			t.Errorf("CDFAt+FractionAbove at %v = %v", v, s)
		}
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 2x + 3
	f := FitLinear(xs, ys)
	if !almostEqual(f.A, 2, 1e-9) || !almostEqual(f.B, 3, 1e-9) {
		t.Fatalf("fit = %+v, want A=2 B=3", f)
	}
	if got := f.Predict(10); !almostEqual(got, 23, 1e-9) {
		t.Errorf("Predict(10) = %v", got)
	}
	if r := f.Residual(1, 6); !almostEqual(r, 1, 1e-9) {
		t.Errorf("Residual = %v", r)
	}
}

func TestFitLinearDegenerate(t *testing.T) {
	f := FitLinear([]float64{2, 2, 2}, []float64{1, 3, 5})
	if f.A != 0 || !almostEqual(f.B, 3, 1e-9) {
		t.Fatalf("degenerate fit = %+v, want A=0 B=3", f)
	}
	single := FitLinear([]float64{4}, []float64{9})
	if single.A != 0 || single.B != 9 {
		t.Fatalf("single-point fit = %+v", single)
	}
}

func TestFitLinearNoisyRecovery(t *testing.T) {
	r := dist.NewRNG(77)
	n := 5000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = r.Float64() * 10
		ys[i] = 1.5*xs[i] + 4 + 0.1*r.NormFloat64()
	}
	f := FitLinear(xs, ys)
	if !almostEqual(f.A, 1.5, 0.01) || !almostEqual(f.B, 4, 0.05) {
		t.Fatalf("noisy fit = %+v, want ~A=1.5 B=4", f)
	}
}

// Property: the least-squares residuals sum to ~zero.
func TestFitLinearResidualProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 2
		r := dist.NewRNG(seed)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 100
			ys[i] = r.Float64() * 100
		}
		fit := FitLinear(xs, ys)
		sum := 0.0
		for i := range xs {
			sum += fit.Residual(xs[i], ys[i])
		}
		return math.Abs(sum) < 1e-6*float64(n)*100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
