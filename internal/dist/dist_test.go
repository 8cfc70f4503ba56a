package dist

import (
	"math"
	"testing"
	"testing/quick"
)

// sampleMean draws n variates and returns their average.
func sampleMean(d Dist, seed uint64, n int) float64 {
	r := NewRNG(seed)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += d.Sample(r)
	}
	return sum / float64(n)
}

// checkMean asserts that the empirical mean of d converges to d.Mean()
// within tol (relative).
func checkMean(t *testing.T, d Dist, tol float64) {
	t.Helper()
	want := d.Mean()
	got := sampleMean(d, 1234, 300000)
	if math.Abs(got-want)/want > tol {
		t.Errorf("%s: sample mean %v, analytic mean %v (tol %v)", d, got, want, tol)
	}
}

func TestExponentialMean(t *testing.T)   { checkMean(t, NewExponential(2.5), 0.02) }
func TestDeterministicMean(t *testing.T) { checkMean(t, Deterministic{Value: 3.7}, 1e-9) }
func TestUniformMean(t *testing.T)       { checkMean(t, Uniform{Lo: 2, Hi: 8}, 0.02) }
func TestLogNormalMean(t *testing.T)     { checkMean(t, LogNormal{Mu: 1, Sigma: 0.5}, 0.02) }
func TestErlangMean(t *testing.T)        { checkMean(t, Erlang{K: 4, Rate: 2}, 0.02) }
func TestTruncatedParetoMean(t *testing.T) {
	checkMean(t, TruncatedPareto{Xm: 1, Alpha: 1.5, Max: 100}, 0.03)
}
func TestParetoFiniteMean(t *testing.T) { checkMean(t, Pareto{Xm: 2, Alpha: 3}, 0.02) }

func TestParetoInfiniteMean(t *testing.T) {
	if m := (Pareto{Xm: 1, Alpha: 0.5}).Mean(); !math.IsInf(m, 1) {
		t.Fatalf("Pareto alpha<=1 mean = %v, want +Inf", m)
	}
}

func TestTruncatedParetoHeavyTailMean(t *testing.T) {
	// Even with alpha = 0.5 the truncated version must have a finite,
	// accurate analytic mean.
	d := TruncatedPareto{Xm: 0.1, Alpha: 0.5, Max: 20}
	got := sampleMean(d, 99, 500000)
	want := d.Mean()
	if math.IsInf(want, 0) || math.Abs(got-want)/want > 0.03 {
		t.Fatalf("truncated heavy-tail: sample mean %v vs analytic %v", got, want)
	}
}

func TestTruncatedParetoAlphaOne(t *testing.T) {
	d := TruncatedPareto{Xm: 1, Alpha: 1, Max: 50}
	got := sampleMean(d, 7, 500000)
	want := d.Mean()
	if math.Abs(got-want)/want > 0.03 {
		t.Fatalf("alpha=1 truncated pareto: sample %v vs analytic %v", got, want)
	}
}

func TestTruncatedParetoSamplesBounded(t *testing.T) {
	d := TruncatedPareto{Xm: 1, Alpha: 0.5, Max: 10}
	r := NewRNG(5)
	for i := 0; i < 100000; i++ {
		v := d.Sample(r)
		if v < d.Xm || v > d.Max {
			t.Fatalf("sample %v outside [%v,%v]", v, d.Xm, d.Max)
		}
	}
}

func TestParetoForRateHitsTargetRate(t *testing.T) {
	for _, rate := range []float64{0.1, 1, 10, 123.4} {
		d := ParetoForRate(rate, 0.5, 50)
		if m := d.Mean(); math.Abs(m-1/rate)/(1/rate) > 1e-6 {
			t.Errorf("rate %v: mean %v, want %v", rate, m, 1/rate)
		}
	}
}

func TestParetoForRateProperty(t *testing.T) {
	f := func(rRaw uint16) bool {
		rate := float64(rRaw%1000)/100 + 0.01
		d := ParetoForRate(rate, ParetoAlpha, 50)
		return math.Abs(d.Mean()-1/rate)/(1/rate) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLogNormalFromMeanCV(t *testing.T) {
	for _, tc := range []struct{ mean, cv float64 }{
		{10, 0.25}, {100, 0.5}, {3.5, 1.0}, {42, 0},
	} {
		d := LogNormalFromMeanCV(tc.mean, tc.cv)
		if math.Abs(d.Mean()-tc.mean)/tc.mean > 1e-9 {
			t.Errorf("mean %v cv %v: analytic mean %v", tc.mean, tc.cv, d.Mean())
		}
		got := sampleMean(d, 21, 300000)
		if math.Abs(got-tc.mean)/tc.mean > 0.03 {
			t.Errorf("mean %v cv %v: sample mean %v", tc.mean, tc.cv, got)
		}
	}
}

func TestLogNormalCVIsHonoured(t *testing.T) {
	d := LogNormalFromMeanCV(50, 0.4)
	r := NewRNG(31)
	const n = 300000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := d.Sample(r)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sumsq/n - mean*mean)
	if cv := sd / mean; math.Abs(cv-0.4) > 0.02 {
		t.Fatalf("empirical CV %v, want 0.4", cv)
	}
}

func TestHyperexponentialMean(t *testing.T) {
	d := NewHyperexponential([]float64{0.3, 0.7}, []float64{0.5, 5})
	checkMean(t, d, 0.02)
}

func TestHyperexponentialValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"length mismatch": func() { NewHyperexponential([]float64{1}, []float64{1, 2}) },
		"bad sum":         func() { NewHyperexponential([]float64{0.5, 0.4}, []float64{1, 2}) },
		"negative p":      func() { NewHyperexponential([]float64{-0.5, 1.5}, []float64{1, 2}) },
		"zero rate":       func() { NewHyperexponential([]float64{0.5, 0.5}, []float64{1, 0}) },
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

func TestEmpiricalResampling(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	d := NewEmpirical(vals)
	checkMean(t, d, 0.02)
	r := NewRNG(8)
	seen := map[float64]bool{}
	for i := 0; i < 1000; i++ {
		v := d.Sample(r)
		seen[v] = true
		found := false
		for _, x := range vals {
			if v == x {
				found = true
			}
		}
		if !found {
			t.Fatalf("sample %v not in source set", v)
		}
	}
	if len(seen) != len(vals) {
		t.Fatalf("only %d/%d source values ever sampled", len(seen), len(vals))
	}
}

func TestEmpiricalCopiesInput(t *testing.T) {
	vals := []float64{1, 2, 3}
	d := NewEmpirical(vals)
	vals[0] = 1000
	if d.Mean() != 2 {
		t.Fatalf("empirical mean %v changed by caller mutation", d.Mean())
	}
}

func TestScaled(t *testing.T) {
	base := Deterministic{Value: 8}
	d := Scaled{Base: base, Factor: 0.25}
	if d.Mean() != 2 {
		t.Fatalf("scaled mean %v, want 2", d.Mean())
	}
	if v := d.Sample(NewRNG(1)); v != 2 {
		t.Fatalf("scaled sample %v, want 2", v)
	}
}

func TestForRateFamilies(t *testing.T) {
	for _, kind := range Kinds() {
		d := ForRate(kind, 4)
		if m := d.Mean(); math.Abs(m-0.25)/0.25 > 1e-5 {
			t.Errorf("%s: mean interarrival %v, want 0.25", kind, m)
		}
	}
}

func TestForRateUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kind did not panic")
		}
	}()
	ForRate(Kind("weibull"), 1)
}

func TestForRateNonPositivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rate 0 did not panic")
		}
	}()
	ForRate(KindExponential, 0)
}

// TestExponentialMemorylessTail checks P(X > a+b | X > a) == P(X > b)
// empirically, the defining property of the exponential distribution.
func TestExponentialMemorylessTail(t *testing.T) {
	d := NewExponential(1)
	r := NewRNG(17)
	const n = 400000
	a, b := 0.7, 0.9
	var gtA, gtAB, gtB int
	for i := 0; i < n; i++ {
		v := d.Sample(r)
		if v > a {
			gtA++
			if v > a+b {
				gtAB++
			}
		}
		if v > b {
			gtB++
		}
	}
	condProb := float64(gtAB) / float64(gtA)
	tailProb := float64(gtB) / float64(n)
	if math.Abs(condProb-tailProb) > 0.01 {
		t.Fatalf("memoryless violated: P(X>a+b|X>a)=%v, P(X>b)=%v", condProb, tailProb)
	}
}
