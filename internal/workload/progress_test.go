package workload

import (
	"math"
	"sort"
	"testing"

	"mdsprint/internal/dist"
)

// referenceProgressAfter is ProgressAfter as first written: a fixed
// 60-step bisection of [tau, 1] that evaluates cumAt at every midpoint.
// The differential test holds the production inversion to it bit for
// bit.
func referenceProgressAfter(c *SprintCurve, total, tau, dt float64) float64 {
	if total <= 0 {
		return 1
	}
	target := c.cumAt(tau) + dt/total
	if target >= c.cumAt(1) {
		return 1
	}
	lo, hi := tau, 1.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if c.cumAt(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// diffSpeedups spans the marginal speedups the testbed builds curves
// for: the degenerate no-op curve, a barely sprinting one, and the
// mechanisms' range up to 9.
var diffSpeedups = []float64{1, 1 + 1e-4, 1.3, 1.7, 2.2, 3, 4.5, 6.5, 9}

// diffCurves returns one sprint curve per catalog phase shape, mechanism
// family and speedup in diffSpeedups, with the uniform shape the
// testbed uses when runtime effects are off.
func diffCurves() (curves []*SprintCurve, names []string) {
	shapes := map[string]PhaseShape{"uniform": UniformPhases()}
	for _, c := range Catalog() {
		shapes[c.Phases.Desc] = c.Phases
	}
	for _, desc := range sortedKeys(shapes) {
		for _, parallel := range []bool{false, true} {
			for _, s := range diffSpeedups {
				curves = append(curves, NewSprintCurve(shapes[desc].Shape(parallel), s))
				names = append(names, desc)
			}
		}
	}
	return curves, names
}

func sortedKeys(m map[string]PhaseShape) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// diffInputs returns n (total, tau, dt) triples for one curve: tau at
// zero, on grid points and uniform in [0, 1); dt log-uniform from
// 1e-9 of total up to past the sprinted remainder, plus exact zeros.
func diffInputs(r *dist.RNG, n int) [][3]float64 {
	in := make([][3]float64, n)
	for i := range in {
		total := math.Exp(r.Float64()*14 - 7)
		var tau float64
		switch i % 4 {
		case 0:
			tau = 0
		case 1:
			tau = float64(r.Intn(gridN+1)) / gridN
		default:
			tau = r.Float64()
		}
		dt := total * math.Pow(10, r.Float64()*9.5-9)
		if i%97 == 0 {
			dt = 0
		}
		in[i] = [3]float64{total, tau, dt}
	}
	return in
}

// TestProgressAfterMatchesReference holds ProgressAfter to the plain
// bisection bit for bit over every catalog phase shape, both mechanism
// families and speedups from 1 to 9, at zero, gridded and random start
// progress and sprint lengths down to 1e-9 of the execution.
func TestProgressAfterMatchesReference(t *testing.T) {
	perCurve := 120_000
	if raceEnabled || testing.Short() {
		perCurve /= 20
	}
	curves, names := diffCurves()
	r := dist.NewRNG(17)
	checked := 0
	for ci, c := range curves {
		for _, in := range diffInputs(r, perCurve) {
			got := c.ProgressAfter(in[0], in[1], in[2])
			want := referenceProgressAfter(c, in[0], in[1], in[2])
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s S=%v: ProgressAfter(%v, %v, %v) = %v, reference %v",
					names[ci], c.MarginalSpeedup(), in[0], in[1], in[2], got, want)
			}
			checked++
		}
	}
	t.Logf("%d curves, %d inputs matched bit for bit", len(curves), checked)
}

// benchProgressAfter times one inversion function over a fixed mix of
// curves and inputs; fromZero starts every sprint at tau = 0, as a
// query whose timeout fires while it waits does.
func benchProgressAfter(b *testing.B, inv func(c *SprintCurve, total, tau, dt float64) float64, fromZero bool) {
	curves, _ := diffCurves()
	r := dist.NewRNG(3)
	in := diffInputs(r, 4096)
	if fromZero {
		for i := range in {
			in[i][1] = 0
		}
	}
	b.ResetTimer()
	sink := 0.0
	for i := 0; i < b.N; i++ {
		x := in[i%len(in)]
		sink += inv(curves[i%len(curves)], x[0], x[1], x[2])
	}
	if math.IsNaN(sink) {
		b.Fatal("NaN progress")
	}
}

func BenchmarkProgressAfter(b *testing.B) {
	b.Run("mixed", func(b *testing.B) { benchProgressAfter(b, (*SprintCurve).ProgressAfter, false) })
	b.Run("from-zero", func(b *testing.B) { benchProgressAfter(b, (*SprintCurve).ProgressAfter, true) })
}

func BenchmarkProgressAfterReference(b *testing.B) {
	b.Run("mixed", func(b *testing.B) { benchProgressAfter(b, referenceProgressAfter, false) })
	b.Run("from-zero", func(b *testing.B) { benchProgressAfter(b, referenceProgressAfter, true) })
}
