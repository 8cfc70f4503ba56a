package dist

import (
	"bytes"
	"testing"
)

func mustCanon(t *testing.T, d Dist) []byte {
	t.Helper()
	b, err := AppendCanon(nil, d)
	if err != nil {
		t.Fatalf("AppendCanon(%v): %v", d, err)
	}
	if len(b) == 0 {
		t.Fatalf("AppendCanon(%v): empty encoding", d)
	}
	return b
}

func TestCanonEqualDistsEqualBytes(t *testing.T) {
	pairs := []struct {
		name string
		a, b Dist
	}{
		{"exp", NewExponential(2.5), NewExponential(2.5)},
		{"det", Deterministic{Value: 3}, Deterministic{Value: 3}},
		{"uniform", Uniform{Lo: 1, Hi: 2}, Uniform{Lo: 1, Hi: 2}},
		{"lognormal", LogNormalFromMeanCV(10, 0.3), LogNormalFromMeanCV(10, 0.3)},
		{"erlang", Erlang{K: 3, Rate: 2}, Erlang{K: 3, Rate: 2}},
		{"hyperexp", HyperexponentialFromMeanCV(4, 2), HyperexponentialFromMeanCV(4, 2)},
		{"empirical", NewEmpirical([]float64{1, 2, 3}), NewEmpirical([]float64{1, 2, 3})},
		{"pareto", ParetoForRate(0.5, 0.5, 10), ParetoForRate(0.5, 0.5, 10)},
		{"scaled", Scaled{Base: NewExponential(1), Factor: 2}, Scaled{Base: NewExponential(1), Factor: 2}},
	}
	for _, p := range pairs {
		if !bytes.Equal(mustCanon(t, p.a), mustCanon(t, p.b)) {
			t.Errorf("%s: equal distributions encode differently", p.name)
		}
	}
}

func TestCanonDistinguishesParamsAndTypes(t *testing.T) {
	ds := []Dist{
		NewExponential(1),
		NewExponential(2),
		Deterministic{Value: 1},
		Deterministic{Value: 2},
		Uniform{Lo: 0, Hi: 1},
		Uniform{Lo: 0, Hi: 2},
		Pareto{Xm: 1, Alpha: 0.5},
		TruncatedPareto{Xm: 1, Alpha: 0.5, Max: 10},
		LogNormal{Mu: 0, Sigma: 1},
		LogNormal{Mu: 0, Sigma: 2},
		Erlang{K: 2, Rate: 1},
		Erlang{K: 3, Rate: 1},
		NewHyperexponential([]float64{0.5, 0.5}, []float64{1, 2}),
		NewHyperexponential([]float64{0.5, 0.5}, []float64{1, 3}),
		NewEmpirical([]float64{1, 2}),
		NewEmpirical([]float64{1, 2, 3}),
		NewEmpirical([]float64{1, 2, 4}),
		Scaled{Base: NewExponential(1), Factor: 2},
		Scaled{Base: NewExponential(1), Factor: 3},
		NewSequence([]float64{1, 2}, 0),
	}
	seen := make(map[string]int)
	for i, d := range ds {
		key := string(mustCanon(t, d))
		if j, dup := seen[key]; dup {
			t.Errorf("distributions %d (%v) and %d (%v) share an encoding", i, d, j, ds[j])
		}
		seen[key] = i
	}
}

func TestCanonEmpiricalLengthPrefixPreventsAliasing(t *testing.T) {
	// Without a length prefix, Empirical{1,2}+Empirical{3} could alias
	// Empirical{1}+Empirical{2,3} when fingerprinting two distributions
	// back to back. The fixed-width length header must prevent that.
	a, err := AppendCanon(nil, NewEmpirical([]float64{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	a, err = AppendCanon(a, NewEmpirical([]float64{3}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := AppendCanon(nil, NewEmpirical([]float64{1}))
	if err != nil {
		t.Fatal(err)
	}
	b, err = AppendCanon(b, NewEmpirical([]float64{2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Fatal("concatenated encodings alias across element boundaries")
	}
}

type unknownDist struct{}

func (unknownDist) Sample(*RNG) float64 { return 0 }
func (unknownDist) Mean() float64       { return 0 }
func (unknownDist) String() string      { return "unknown" }

func TestCanonUnknownTypeErrors(t *testing.T) {
	if _, err := AppendCanon(nil, unknownDist{}); err == nil {
		t.Fatal("unknown distribution type must refuse a canonical encoding")
	}
	// An unknown base buried in a wrapper must surface too.
	if _, err := AppendCanon(nil, Scaled{Base: unknownDist{}, Factor: 2}); err == nil {
		t.Fatal("unknown scaled base must refuse a canonical encoding")
	}
}

// TestAppendCanonForRateMatchesForRate: the unboxed encoding of a derived
// arrival process must be byte-identical to encoding ForRate's value, for
// every kind, or sweep keys would change.
func TestAppendCanonForRateMatchesForRate(t *testing.T) {
	prefix := []byte("key-prefix")
	for _, k := range Kinds() {
		for _, rate := range []float64{1e-4, 0.013, 0.5, 7} {
			want := append(append([]byte(nil), prefix...), mustCanon(t, ForRate(k, rate))...)
			got := AppendCanonForRate(append([]byte(nil), prefix...), k, rate)
			if !bytes.Equal(got, want) {
				t.Errorf("%s at rate %v: %x, want %x", k, rate, got, want)
			}
		}
	}
}
