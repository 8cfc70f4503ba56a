// Package stats provides the summary statistics used to evaluate the
// sprinting models: means, quantiles, coefficients of variation, empirical
// CDFs, and the absolute-relative-error metrics reported in the paper's
// evaluation (Section 3).
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// ApproxEqual reports whether a and b agree to within eps, combining an
// absolute and a relative test: |a-b| <= eps or |a-b| <= eps*max(|a|,|b|).
// It is the project's sanctioned replacement for float equality (the
// floateq analyzer forbids bare ==/!= on floats). NaN equals nothing;
// equal infinities are equal. A non-positive eps degenerates to exact
// comparison.
func ApproxEqual(a, b, eps float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	// Allowlisted in the floateq config: the epsilon helper itself may
	// short-circuit on exact matches and equal infinities.
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if diff <= eps {
		return true
	}
	return diff <= eps*math.Max(math.Abs(a), math.Abs(b))
}

// ApproxZero reports whether |x| <= eps. NaN is never approximately zero.
func ApproxZero(x, eps float64) bool {
	return math.Abs(x) <= eps
}

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or NaN if len(xs) == 0.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// Stddev returns the population standard deviation of xs.
func Stddev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CoV returns the coefficient of variation (stddev / mean). It returns NaN
// for empty input and +Inf when the mean is zero but the data varies.
func CoV(xs []float64) float64 {
	m := Mean(xs)
	sd := Stddev(xs)
	if math.IsNaN(m) {
		return math.NaN()
	}
	//lint:ignore floateq exact-zero guards against division by zero; approximate zeros must still divide
	if m == 0 {
		//lint:ignore floateq see above: only a bitwise-zero spread makes CoV 0 here
		if sd == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return sd / math.Abs(m)
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It does not modify xs and returns
// NaN for empty input or q outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted is Quantile over data already sorted ascending.
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	lo, frac := quantilePos(n, q)
	if lo >= n-1 {
		return sorted[n-1]
	}
	return interpolate(sorted[lo], sorted[lo+1], frac)
}

// quantilePos locates the q-th quantile of n > 1 sorted values: it lies
// frac of the way from order statistic lo to lo+1 (lo >= n-1 means the
// maximum).
func quantilePos(n int, q float64) (lo int, frac float64) {
	pos := q * float64(n-1)
	lo = int(pos)
	return lo, pos - float64(lo)
}

// interpolate is the linear interpolation every quantile here shares, so
// sorted and selected quantiles round identically.
func interpolate(a, b, frac float64) float64 { return a*(1-frac) + b*frac }

// SelectQuantile returns exactly Quantile(xs, q), bit for bit, by
// selecting the two order statistics it interpolates between instead of
// sorting a copy. It reorders xs in place and allocates nothing. Values
// order as sort.Float64s orders them (NaN first), so the result is
// identical whenever values that compare equal are bitwise equal — that
// is, unless xs mixes -0 with +0 or holds NaNs with different payloads.
func SelectQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	return selectAbove(xs, 0, q)
}

// SelectQuantilePair returns SelectQuantile(xs, p) and
// SelectQuantile(xs, q) for p <= q in one pass: selecting the p-th order
// statistic leaves every larger one above it, so the q-th is selected
// within that upper partition alone (P99 after P95 searches the top 5%
// of xs). Otherwise the two are selected independently. Like
// SelectQuantile it reorders xs in place and allocates nothing.
func SelectQuantilePair(xs []float64, p, q float64) (float64, float64) {
	qp := SelectQuantile(xs, p)
	if n := len(xs); n > 1 && p >= 0 && p <= q && q <= 1 {
		if base, _ := quantilePos(n, p); base < n-1 {
			return qp, selectAbove(xs, base, q)
		}
	}
	return qp, SelectQuantile(xs, q)
}

// selectAbove is SelectQuantile for a non-empty xs whose first from
// elements are known to order no later than the rest, so only xs[from:]
// is searched.
func selectAbove(xs []float64, from int, q float64) float64 {
	n := len(xs)
	if n == 1 {
		return xs[0]
	}
	lo, frac := quantilePos(n, q)
	if lo >= n-1 {
		return orderMax(xs[from:])
	}
	selectKth(xs[from:], lo-from)
	return interpolate(xs[lo], orderMin(xs[lo+1:]), frac)
}

// floatLess is sort.Float64s's order: ascending, NaN before everything.
func floatLess(a, b float64) bool { return a < b || (math.IsNaN(a) && !math.IsNaN(b)) }

// orderMin returns the first element of xs under floatLess.
func orderMin(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if floatLess(x, m) {
			m = x
		}
	}
	return m
}

// orderMax returns the last element of xs under floatLess.
func orderMax(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if floatLess(m, x) {
			m = x
		}
	}
	return m
}

// selectKth partially orders xs so that xs[k] holds the k-th order
// statistic under floatLess, everything before it is no greater and
// everything after it no smaller. It is a three-way-partition quickselect
// (runs of equal values cost one pass) with a median-of-three pivot, and
// falls back to sorting the remaining range if the partitions stop
// shrinking, so its worst case stays O(n log n).
func selectKth(xs []float64, k int) {
	lo, hi := 0, len(xs)
	budget := 2 * bits.Len(uint(len(xs)))
	for hi-lo > 12 {
		if budget == 0 {
			slices.Sort(xs[lo:hi])
			return
		}
		budget--
		p := median3(xs[lo], xs[lo+(hi-lo)/2], xs[hi-1])
		// Dutch-flag partition: [lo,lt) < p, [lt,i) == p, [gt,hi) > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch x := xs[i]; {
			case floatLess(x, p):
				xs[lt], xs[i] = x, xs[lt]
				lt++
				i++
			case floatLess(p, x):
				gt--
				xs[i], xs[gt] = xs[gt], x
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
	slices.Sort(xs[lo:hi])
}

// median3 returns the median of three values under floatLess.
func median3(a, b, c float64) float64 {
	if floatLess(b, a) {
		a, b = b, a
	}
	if floatLess(c, b) {
		b = c
		if floatLess(b, a) {
			b = a
		}
	}
	return b
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// AbsRelError returns |predicted - observed| / observed, the paper's
// prediction-error metric. A zero observation yields +Inf unless the
// prediction is also zero.
func AbsRelError(predicted, observed float64) float64 {
	//lint:ignore floateq exact-zero guard against division by zero, per the function contract
	if observed == 0 {
		//lint:ignore floateq exact match of a zero observation is the one error-free case
		if predicted == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(predicted-observed) / math.Abs(observed)
}

// AbsRelErrors maps AbsRelError over paired slices. It panics if the slices
// differ in length.
func AbsRelErrors(predicted, observed []float64) []float64 {
	if len(predicted) != len(observed) {
		panic(fmt.Sprintf("stats: %d predictions vs %d observations", len(predicted), len(observed)))
	}
	errs := make([]float64, len(predicted))
	for i := range predicted {
		errs[i] = AbsRelError(predicted[i], observed[i])
	}
	return errs
}

// MedianAbsRelError is the headline accuracy number in Figures 7-10: the
// median of per-test absolute relative errors.
func MedianAbsRelError(predicted, observed []float64) float64 {
	return Median(AbsRelErrors(predicted, observed))
}

// Summary bundles the usual descriptive statistics of one sample.
type Summary struct {
	N                   int
	Mean, Std, CoV      float64
	Min, Median, Max    float64
	P90, P95, P99, P999 float64
}

// Summarize computes a Summary of xs in a single sort.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		nan := math.NaN()
		return Summary{Mean: nan, Std: nan, CoV: nan, Min: nan, Median: nan, Max: nan, P90: nan, P95: nan, P99: nan, P999: nan}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Std:    Stddev(xs),
		CoV:    CoV(xs),
		Min:    sorted[0],
		Median: quantileSorted(sorted, 0.5),
		Max:    sorted[len(sorted)-1],
		P90:    quantileSorted(sorted, 0.90),
		P95:    quantileSorted(sorted, 0.95),
		P99:    quantileSorted(sorted, 0.99),
		P999:   quantileSorted(sorted, 0.999),
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g p50=%.4g p99=%.4g max=%.4g",
		s.N, s.Mean, s.Std, s.Min, s.Median, s.P99, s.Max)
}

// CDFAt returns the fraction of samples in xs that are <= v.
func CDFAt(xs []float64, v float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	count := 0
	for _, x := range xs {
		if x <= v {
			count++
		}
	}
	return float64(count) / float64(len(xs))
}

// FractionAbove returns the fraction of samples strictly greater than v.
// The paper's tail-latency comparison counts executions above fixed
// thresholds (e.g. >335 s for the 99th percentile study in Section 4.4).
func FractionAbove(xs []float64, v float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	count := 0
	for _, x := range xs {
		if x > v {
			count++
		}
	}
	return float64(count) / float64(len(xs))
}
