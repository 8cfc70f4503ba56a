package stats

import (
	"math"
	"testing"
	"testing/quick"

	"mdsprint/internal/dist"
)

// selected returns SelectQuantile over a copy of xs, leaving xs intact
// for the reference computation.
func selected(xs []float64, q float64) float64 {
	return SelectQuantile(append([]float64(nil), xs...), q)
}

// sameBits reports whether a and b are the same float64 bit pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkTails compares SelectQuantile against Summarize's P95/P99 and
// against Quantile at q, bit for bit.
func checkTails(t *testing.T, name string, xs []float64, q float64) {
	t.Helper()
	sum := Summarize(xs)
	if got := selected(xs, 0.95); !sameBits(got, sum.P95) {
		t.Errorf("%s: P95 %v (%#x), Summarize %v (%#x)", name, got, math.Float64bits(got), sum.P95, math.Float64bits(sum.P95))
	}
	if got := selected(xs, 0.99); !sameBits(got, sum.P99) {
		t.Errorf("%s: P99 %v, Summarize %v", name, got, sum.P99)
	}
	if got, want := selected(xs, q), Quantile(xs, q); !sameBits(got, want) {
		t.Errorf("%s: q=%v %v, Quantile %v", name, q, got, want)
	}
}

// TestSelectQuantileEdgeCases covers the shapes where selection and
// sorting are most likely to part ways: tiny inputs, all-equal input,
// duplicates straddling the selected order statistics, presorted and
// reversed runs long enough to need several partition rounds, and NaNs.
func TestSelectQuantileEdgeCases(t *testing.T) {
	ramp := func(n int, f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	cases := map[string][]float64{
		"n=1":             {3.5},
		"n=2":             {2, 1},
		"n=2 equal":       {4, 4},
		"all equal":       ramp(500, func(int) float64 { return 7.25 }),
		"two values":      ramp(301, func(i int) float64 { return float64(i % 2) }),
		"dups at p95/p99": append(ramp(95, func(i int) float64 { return float64(i) }), 100, 100, 100, 100, 100),
		"sorted":          ramp(1000, func(i int) float64 { return float64(i) * 0.1 }),
		"reversed":        ramp(1000, func(i int) float64 { return float64(1000-i) * 0.1 }),
		"organ pipe":      ramp(999, func(i int) float64 { return math.Min(float64(i), float64(998-i)) }),
		"infinities":      {1, math.Inf(1), 2, math.Inf(-1), 3, math.Inf(1), 4},
		"NaNs":            {5, math.NaN(), 1, 2, math.NaN(), 9, 3},
		"all NaN":         {math.NaN(), math.NaN(), math.NaN()},
	}
	for name, xs := range cases {
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.999, 1} {
			checkTails(t, name, xs, q)
		}
	}
	if !math.IsNaN(SelectQuantile(nil, 0.5)) || !math.IsNaN(SelectQuantile([]float64{1}, 1.5)) {
		t.Error("empty input or q outside [0, 1] must give NaN")
	}
}

// TestSelectQuantileMatchesSummarize is the exactness property: for any
// sample, including heavy ties drawn from a small value pool, selection
// reproduces Summarize's P95 and P99 and Quantile at an arbitrary q bit
// for bit.
func TestSelectQuantileMatchesSummarize(t *testing.T) {
	f := func(raw []uint16, tieMask uint8, qRaw uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			if tieMask&1 == 1 {
				// Few distinct values: duplicates land on the order
				// statistics being selected.
				xs[i] = float64(r % 7)
			} else {
				xs[i] = float64(r)/97 + 1
			}
		}
		q := float64(qRaw) / math.MaxUint16
		sum := Summarize(xs)
		return sameBits(selected(xs, 0.95), sum.P95) &&
			sameBits(selected(xs, 0.99), sum.P99) &&
			sameBits(selected(xs, q), Quantile(xs, q))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestSelectQuantileLargeSamples runs the same comparison on samples the
// size Predict pools (thousands of response times), continuous and tied.
func TestSelectQuantileLargeSamples(t *testing.T) {
	r := dist.NewRNG(5)
	ln := dist.LogNormalFromMeanCV(100, 1.5)
	for i := 0; i < 60; i++ {
		xs := make([]float64, 1+r.Intn(6000))
		for j := range xs {
			xs[j] = ln.Sample(r)
			if i%3 == 0 {
				xs[j] = math.Round(xs[j] / 50)
			}
		}
		checkTails(t, "large", xs, r.Float64())
	}
}

// TestSelectQuantilePairMatchesSelectQuantile: both results of the pair
// equal SelectQuantile over an untouched copy, bit for bit, across
// lengths 1-5000, heavy duplicates, signed zeros, NaNs, q == p and
// q = 1. (Mixing -0 with +0 at the selected order statistics is outside
// the bit-for-bit contract, as for SelectQuantile itself, so each signed-
// zero sample holds zeros of one sign only.)
func TestSelectQuantilePairMatchesSelectQuantile(t *testing.T) {
	r := dist.NewRNG(11)
	ln := dist.LogNormalFromMeanCV(100, 1.5)
	gens := map[string]func(i int) float64{
		"continuous": func(int) float64 { return ln.Sample(r) },
		"duplicates": func(int) float64 { return float64(r.Intn(4)) },
		"negative zeros": func(int) float64 {
			if r.Intn(3) == 0 {
				return -float64(r.Intn(50))
			}
			return math.Copysign(0, -1)
		},
		"positive zeros": func(int) float64 {
			if r.Intn(3) == 0 {
				return float64(r.Intn(50))
			}
			return 0
		},
		"NaNs": func(int) float64 {
			if r.Intn(10) == 0 {
				return math.NaN()
			}
			return ln.Sample(r)
		},
		"all NaN": func(int) float64 { return math.NaN() },
	}
	pairs := [][2]float64{{0.95, 0.99}, {0.95, 0.95}, {0.5, 0.5}, {0.95, 1}, {1, 1}, {0, 1}, {0, 0}, {0.25, 0.75}}
	var lengths []int
	for n := 1; n <= 64; n++ {
		lengths = append(lengths, n)
	}
	for n := 65; n <= 5000; n = n*5/4 + 1 {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 5000)
	for name, gen := range gens {
		for _, n := range lengths {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = gen(i)
			}
			for _, pq := range pairs {
				work := append([]float64(nil), xs...)
				gotP, gotQ := SelectQuantilePair(work, pq[0], pq[1])
				if wantP := selected(xs, pq[0]); !sameBits(gotP, wantP) {
					t.Errorf("%s n=%d p=%v: %v (%#x), SelectQuantile %v (%#x)", name, n, pq[0], gotP, math.Float64bits(gotP), wantP, math.Float64bits(wantP))
				}
				if wantQ := selected(xs, pq[1]); !sameBits(gotQ, wantQ) {
					t.Errorf("%s n=%d p=%v q=%v: %v (%#x), SelectQuantile %v (%#x)", name, n, pq[0], pq[1], gotQ, math.Float64bits(gotQ), wantQ, math.Float64bits(wantQ))
				}
			}
		}
	}
	// Out-of-contract arguments fall back to independent selection.
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = ln.Sample(r)
	}
	if p, q := SelectQuantilePair(append([]float64(nil), xs...), 0.9, 0.1); !sameBits(p, selected(xs, 0.9)) || !sameBits(q, selected(xs, 0.1)) {
		t.Errorf("p > q: got %v, %v", p, q)
	}
	if p, q := SelectQuantilePair(nil, 0.95, 0.99); !math.IsNaN(p) || !math.IsNaN(q) {
		t.Errorf("empty input: got %v, %v, want NaN", p, q)
	}
	if _, q := SelectQuantilePair(append([]float64(nil), xs...), 0.5, 1.5); !math.IsNaN(q) {
		t.Errorf("q outside [0, 1]: got %v, want NaN", q)
	}
}
