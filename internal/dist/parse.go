package dist

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

const (
	// maxCV bounds lognormal/hyperexp coefficients of variation: beyond
	// it the moment-matching constructions overflow (cv^2 past 2^53
	// collapses the hyperexponential slow branch to probability zero).
	maxCV = 1e6
	// maxErlangK bounds the stage count so Sample stays O(k) cheap.
	maxErlangK = 1e6
)

// ParseDist parses a distribution spec of the form name(arg1,arg2,...):
//
//	exp(rate)            exponential with the given rate
//	det(value)           deterministic point mass
//	uniform(lo,hi)       uniform on [lo, hi]
//	pareto(xm,alpha)     Pareto with scale xm and shape alpha
//	tpareto(xm,alpha,max) Pareto clamped at max
//	lognormal(mean,cv)   log-normal from mean and coefficient of variation
//	erlang(k,rate)       Erlang-k (k a positive integer)
//	hyperexp(mean,cv)    two-branch hyperexponential (cv >= 1)
//	emp(v1,v2,...)       empirical resampling of the listed values
//
// Names are case-insensitive and whitespace around tokens is ignored.
// All arguments are validated before any constructor runs, so ParseDist
// returns an error — never panics — on malformed or out-of-range input.
// It is the grammar behind command-line -arrival/-service flags and the
// FuzzParseDist fuzz target.
func ParseDist(spec string) (Dist, error) {
	s := strings.TrimSpace(spec)
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return nil, fmt.Errorf("dist: spec %q: want name(args)", spec)
	}
	name := strings.ToLower(strings.TrimSpace(s[:open]))
	argStr := s[open+1 : len(s)-1]
	args, err := parseArgs(argStr)
	if err != nil {
		return nil, fmt.Errorf("dist: spec %q: %v", spec, err)
	}

	arity := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("dist: spec %q: %s takes %d args, got %d", spec, name, n, len(args))
		}
		return nil
	}
	switch name {
	case "exp", "exponential":
		if err := arity(1); err != nil {
			return nil, err
		}
		if args[0] <= 0 {
			return nil, fmt.Errorf("dist: spec %q: rate must be positive", spec)
		}
		return NewExponential(args[0]), nil
	case "det", "deterministic":
		if err := arity(1); err != nil {
			return nil, err
		}
		if args[0] < 0 {
			return nil, fmt.Errorf("dist: spec %q: value must be non-negative", spec)
		}
		return Deterministic{Value: args[0]}, nil
	case "uniform":
		if err := arity(2); err != nil {
			return nil, err
		}
		if args[0] < 0 || args[1] < args[0] {
			return nil, fmt.Errorf("dist: spec %q: want 0 <= lo <= hi", spec)
		}
		return Uniform{Lo: args[0], Hi: args[1]}, nil
	case "pareto":
		if err := arity(2); err != nil {
			return nil, err
		}
		if args[0] <= 0 || args[1] <= 0 {
			return nil, fmt.Errorf("dist: spec %q: want xm > 0 and alpha > 0", spec)
		}
		return Pareto{Xm: args[0], Alpha: args[1]}, nil
	case "tpareto":
		if err := arity(3); err != nil {
			return nil, err
		}
		if args[0] <= 0 || args[1] <= 0 || args[2] < args[0] {
			return nil, fmt.Errorf("dist: spec %q: want xm > 0, alpha > 0, max >= xm", spec)
		}
		return TruncatedPareto{Xm: args[0], Alpha: args[1], Max: args[2]}, nil
	case "lognormal":
		if err := arity(2); err != nil {
			return nil, err
		}
		if args[0] <= 0 || args[1] < 0 || args[1] > maxCV {
			return nil, fmt.Errorf("dist: spec %q: want mean > 0 and 0 <= cv <= %g", spec, maxCV)
		}
		return LogNormalFromMeanCV(args[0], args[1]), nil
	case "erlang":
		if err := arity(2); err != nil {
			return nil, err
		}
		//lint:ignore floateq exact integrality test: k must be a whole number of stages, 2.0000001 is a spec error
		if args[0] < 1 || args[0] > maxErlangK || args[0] != math.Trunc(args[0]) || args[1] <= 0 {
			return nil, fmt.Errorf("dist: spec %q: want integer 1 <= k <= %g and rate > 0", spec, float64(maxErlangK))
		}
		return Erlang{K: int(args[0]), Rate: args[1]}, nil
	case "hyperexp", "hyperexponential":
		if err := arity(2); err != nil {
			return nil, err
		}
		if args[0] <= 0 || args[1] < 1 || args[1] > maxCV {
			return nil, fmt.Errorf("dist: spec %q: want mean > 0 and 1 <= cv <= %g", spec, maxCV)
		}
		return HyperexponentialFromMeanCV(args[0], args[1]), nil
	case "emp", "empirical":
		if len(args) == 0 {
			return nil, fmt.Errorf("dist: spec %q: emp needs at least one value", spec)
		}
		for _, v := range args {
			if v < 0 {
				return nil, fmt.Errorf("dist: spec %q: empirical values must be non-negative", spec)
			}
		}
		return NewEmpirical(args), nil
	default:
		return nil, fmt.Errorf("dist: spec %q: unknown distribution %q", spec, name)
	}
}

// parseArgs splits and parses a comma-separated float list, rejecting
// NaN/Inf (which would poison every downstream mean and sample).
func parseArgs(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("arg %d: %v", i+1, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("arg %d: must be finite", i+1)
		}
		out[i] = v
	}
	return out, nil
}
