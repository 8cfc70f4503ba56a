package dist

import (
	"math"
	"strings"
	"testing"
)

func TestParseDistValid(t *testing.T) {
	cases := []struct {
		spec string
		mean float64
	}{
		{"exp(2)", 0.5},
		{"EXP( 2 )", 0.5},
		{"det(3.5)", 3.5},
		{"uniform(1, 3)", 2},
		{"tpareto(1, 2, 10)", TruncatedPareto{Xm: 1, Alpha: 2, Max: 10}.Mean()},
		{"lognormal(4, 0.5)", 4},
		{"erlang(4, 2)", 2},
		{"hyperexp(5, 2)", 5},
		{"emp(1, 2, 3)", 2},
	}
	for _, c := range cases {
		d, err := ParseDist(c.spec)
		if err != nil {
			t.Errorf("ParseDist(%q): %v", c.spec, err)
			continue
		}
		if got := d.Mean(); !ApproxEqualT(got, c.mean, 1e-9) {
			t.Errorf("ParseDist(%q).Mean() = %v, want %v", c.spec, got, c.mean)
		}
	}
}

// ApproxEqualT mirrors stats.ApproxEqual without importing stats (which
// would cycle through this package's tests).
func ApproxEqualT(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestParseDistSampleable(t *testing.T) {
	specs := []string{
		"exp(1)", "det(2)", "uniform(0,1)", "pareto(1,2.5)",
		"tpareto(1,1,8)", "lognormal(3,1.2)", "erlang(3,1)",
		"hyperexp(2,3)", "emp(0.5,1.5)",
	}
	rng := NewRNG(7)
	for _, spec := range specs {
		d, err := ParseDist(spec)
		if err != nil {
			t.Fatalf("ParseDist(%q): %v", spec, err)
		}
		for i := 0; i < 100; i++ {
			v := d.Sample(rng)
			if math.IsNaN(v) || v < 0 {
				t.Fatalf("ParseDist(%q).Sample() = %v", spec, v)
			}
		}
	}
}

func TestParseDistErrors(t *testing.T) {
	specs := []string{
		"", "exp", "exp(", "exp)", "exp()", "exp(0)", "exp(-1)", "exp(1,2)",
		"exp(NaN)", "exp(Inf)", "det(-1)", "uniform(3,1)", "uniform(-1,1)",
		"pareto(0,1)", "tpareto(2,1,1)", "lognormal(0,1)", "lognormal(1,-1)",
		"erlang(1.5,1)", "erlang(0,1)", "erlang(2000000,1)", "hyperexp(1,0.5)",
		"hyperexp(1,1e7)", "lognormal(1,1e7)", "emp()", "emp(-1)",
		"gauss(0,1)", "exp(1))", "exp(1x)",
	}
	for _, spec := range specs {
		if d, err := ParseDist(spec); err == nil {
			t.Errorf("ParseDist(%q) = %v, want error", spec, d)
		}
	}
}

func FuzzParseDist(f *testing.F) {
	for _, seed := range []string{
		"exp(1)", "det(2)", "uniform(0,1)", "pareto(1,2)", "tpareto(1,2,9)",
		"lognormal(3,0.5)", "erlang(2,4)", "hyperexp(1,2)", "emp(1,2,3)",
		"exp(-1)", "exp(1e308)", "emp(NaN)", "((((", "exp(0x1p10)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		d, err := ParseDist(spec) // must never panic
		if err != nil {
			return
		}
		if d == nil {
			t.Fatalf("ParseDist(%q): nil dist without error", spec)
		}
		// Every successfully parsed distribution must be usable: finite
		// non-NaN samples and a printable name. (+Inf means are legal for
		// heavy-tailed Pareto shapes.)
		if d.String() == "" {
			t.Fatalf("ParseDist(%q): empty String()", spec)
		}
		if m := d.Mean(); math.IsNaN(m) {
			t.Fatalf("ParseDist(%q): NaN mean", spec)
		}
		rng := NewRNG(1)
		for i := 0; i < 16; i++ {
			v := d.Sample(rng)
			if math.IsNaN(v) || v < 0 {
				t.Fatalf("ParseDist(%q): sample %v", spec, v)
			}
		}
		// The spec name must round-trip to the family the parser claims.
		if !strings.Contains(spec, "(") {
			t.Fatalf("ParseDist(%q) accepted a spec without parentheses", spec)
		}
	})
}
