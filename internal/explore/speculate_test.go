package explore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mdsprint/internal/dist"
)

// serialMinimize is Minimize as it stood before it could score ahead:
// one candidate at a time, every score from a call of its own. It is the
// oracle the speculating search must match bit for bit.
func serialMinimize(obj Objective, space Space, opts Options) (Result, error) {
	if err := space.validate(); err != nil {
		return Result{}, err
	}
	o := opts.withDefaults()
	r := dist.NewRNG(o.Seed)
	dims := len(space.Lo)
	cur := make([]float64, dims)
	for d := range cur {
		cur[d] = space.Lo[d] + r.Float64()*(space.Hi[d]-space.Lo[d])
	}
	curRT := obj(cur)
	res := Result{
		Point:       append([]float64(nil), cur...),
		RT:          curRT,
		Evaluations: 1,
		Trace:       []Step{{Point: append([]float64(nil), cur...), RT: curRT}},
	}
	z := o.InitialZ
	for i := 0; i < o.MaxIter; i++ {
		cand := append([]float64(nil), cur...)
		d := 0
		if dims > 1 {
			d = r.Intn(dims)
		}
		cand[d] += (r.Float64()*2 - 1) * space.NeighborRange[d]
		cand[d] = clamp(cand[d], space.Lo[d], space.Hi[d])
		if math.Float64bits(cand[d]) == math.Float64bits(cur[d]) {
			if (i+1)%100 == 0 {
				z *= o.ZDecayPer100
			}
			continue
		}
		candRT := obj(cand)
		res.Evaluations++
		accept := candRT < curRT
		if !accept {
			a := math.Exp((curRT - candRT) / z)
			accept = r.Float64() < a
		}
		if accept {
			cur, curRT = cand, candRT
			res.Trace = append(res.Trace, Step{Point: append([]float64(nil), cand...), RT: candRT})
			if candRT < res.RT {
				res.RT = candRT
				res.Point = append([]float64(nil), cand...)
			}
		}
		if (i+1)%100 == 0 {
			z *= o.ZDecayPer100
		}
	}
	return res, nil
}

// sameResult reports how a differs from the oracle's b: the best point,
// its RT and the trace bit for bit, and the consumed evaluations.
func sameResult(a, b Result) error {
	if len(a.Point) != len(b.Point) {
		return fmt.Errorf("point %v, serial %v", a.Point, b.Point)
	}
	for d := range a.Point {
		if math.Float64bits(a.Point[d]) != math.Float64bits(b.Point[d]) {
			return fmt.Errorf("point %v, serial %v", a.Point, b.Point)
		}
	}
	if math.Float64bits(a.RT) != math.Float64bits(b.RT) {
		return fmt.Errorf("RT %v, serial %v", a.RT, b.RT)
	}
	if !sameTrace(a.Trace, b.Trace) {
		return fmt.Errorf("trace of %d steps differs from the serial one of %d", len(a.Trace), len(b.Trace))
	}
	if a.Evaluations-a.Speculative != b.Evaluations {
		return fmt.Errorf("consumed %d - %d evaluations, serial %d", a.Evaluations, a.Speculative, b.Evaluations)
	}
	if a.Speculative < 0 || a.Speculative > a.Evaluations {
		return fmt.Errorf("speculative %d of %d evaluations", a.Speculative, a.Evaluations)
	}
	return nil
}

// pointKey is a point's exact bits, for sets of scored points.
func pointKey(p []float64) string {
	var b strings.Builder
	for _, v := range p {
		fmt.Fprintf(&b, "%016x.", math.Float64bits(v))
	}
	return b.String()
}

// recorder wraps an objective, counting calls and the points scored.
type recorder struct {
	mu     sync.Mutex
	calls  int
	points map[string][]float64
}

func (rc *recorder) wrap(obj Objective) Objective {
	return func(p []float64) float64 {
		rc.mu.Lock()
		rc.calls++
		if rc.points == nil {
			rc.points = map[string][]float64{}
		}
		rc.points[pointKey(p)] = append([]float64(nil), p...)
		rc.mu.Unlock()
		return obj(p)
	}
}

// hashNoise is a pure pseudo-random function of a point's bits in
// [0, 1): a rugged objective that stays a function of its point.
func hashNoise(p []float64) float64 {
	h := uint64(14695981039346656037)
	for _, v := range p {
		h ^= math.Float64bits(v)
		h *= 1099511628211
		h ^= h >> 29
	}
	return float64(h>>11) / (1 << 53)
}

// specCase is one differential configuration.
type specCase struct {
	name  string
	obj   Objective
	space Space
	opts  Options
}

func specCases() []specCase {
	one := Space{Lo: []float64{0}, Hi: []float64{300}, NeighborRange: []float64{100}}
	narrow := Space{Lo: []float64{0}, Hi: []float64{50}, NeighborRange: []float64{100}}
	two := Space{Lo: []float64{0, 0}, Hi: []float64{100, 1}, NeighborRange: []float64{20, 0.2}}
	three := Space{Lo: []float64{-1, 0, 5}, Hi: []float64{1, 10, 5.5}, NeighborRange: []float64{3, 2, 1}}
	quad := func(p []float64) float64 { return (p[0] - 42) * (p[0] - 42) }
	var cases []specCase
	for seed := uint64(0); seed < 6; seed++ {
		for _, iters := range []int{0, 1, 2, 3, 17, 100, 250} {
			o := Options{MaxIter: iters, Seed: seed}
			cases = append(cases,
				specCase{"quadratic", quad, one, o},
				// Small RT gaps next to Z = 1: regressions get accepted.
				specCase{"shallow", func(p []float64) float64 { return 1e-3 * math.Abs(p[0]-120) }, one, o},
				// Plateaus: exact ties between neighbours.
				specCase{"plateau", func(p []float64) float64 { return math.Floor(p[0] / 40) }, one, o},
				specCase{"flat", func(p []float64) float64 { return 7 }, one, o},
				// A monotone objective pins the bound; proposals clamp.
				specCase{"clamped", func(p []float64) float64 { return -p[0] }, narrow, o},
				specCase{"rugged", func(p []float64) float64 { return hashNoise(p) }, one, o},
				specCase{"2-d", func(p []float64) float64 {
					return (p[0]-10)*(p[0]-10) + 1000*(p[1]-0.4)*(p[1]-0.4)
				}, two, o},
				specCase{"3-d rugged", func(p []float64) float64 { return p[0]*p[0] + hashNoise(p) }, three, o},
			)
		}
	}
	return cases
}

// TestMinimizeSpeculationMatchesSerial is the differential test: over
// seeds, dimensions, bound clamps, plateaus, accepted regressions and
// MaxIter edges, the speculating search returns the serial search's
// point, RT and trace bit for bit and consumes as many evaluations, and
// the objective runs exactly Evaluations times.
func TestMinimizeSpeculationMatchesSerial(t *testing.T) {
	speculative := 0
	for _, c := range specCases() {
		want, err := serialMinimize(c.obj, c.space, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		var rc recorder
		o := c.opts
		o.Speculate = true
		got, err := Minimize(rc.wrap(c.obj), c.space, o)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResult(got, want); err != nil {
			t.Fatalf("%s seed %d MaxIter %d: %v", c.name, c.opts.Seed, c.opts.MaxIter, err)
		}
		if rc.calls != got.Evaluations {
			t.Fatalf("%s: objective ran %d times, Evaluations %d", c.name, rc.calls, got.Evaluations)
		}
		speculative += got.Speculative
		serialAgain, err := Minimize(c.obj, c.space, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResult(serialAgain, want); err != nil || serialAgain.Speculative != 0 {
			t.Fatalf("%s: Minimize without speculation: %v, %d speculative", c.name, err, serialAgain.Speculative)
		}
	}
	if speculative == 0 {
		t.Fatal("no case discarded a speculative value")
	}
}

// TestMinimizeSpeculationFlatSpace: a space with no room to move never
// starts a speculative call, nor one past the last iteration.
func TestMinimizeSpeculationFlatSpace(t *testing.T) {
	space := Space{Lo: []float64{3}, Hi: []float64{3}, NeighborRange: []float64{1}}
	res, err := Minimize(func(p []float64) float64 { return p[0] }, space, Options{MaxIter: 50, Speculate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 1 || res.Speculative != 0 {
		t.Fatalf("%d evaluations, %d speculative; want 1 and 0", res.Evaluations, res.Speculative)
	}
}

// TestMinimizeSpeculationScoresFirstTwoTogether: the initial point and
// the first proposal are in flight at once. Each of the first two calls
// waits for the other; a search that scored them one after the other
// would time out here.
func TestMinimizeSpeculationScoresFirstTwoTogether(t *testing.T) {
	var arrived atomic.Int32
	both := make(chan struct{})
	obj := func(p []float64) float64 {
		if arrived.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
		case <-time.After(10 * time.Second):
			panic("the first two calls were not in flight together")
		}
		return p[0]
	}
	space := Space{Lo: []float64{0}, Hi: []float64{300}, NeighborRange: []float64{100}}
	if _, err := Minimize(obj, space, Options{MaxIter: 5, Seed: 1, Speculate: true}); err != nil {
		t.Fatal(err)
	}
}

// spectator runs one speculating search and the serial oracle over obj
// and returns the points only the speculating search scored (discarded
// speculation) and the points both scored.
func spectator(t *testing.T, obj Objective, space Space, opts Options) (discarded, shared [][]float64) {
	t.Helper()
	var serial, spec recorder
	if _, err := serialMinimize(serial.wrap(obj), space, opts); err != nil {
		t.Fatal(err)
	}
	o := opts
	o.Speculate = true
	if _, err := Minimize(spec.wrap(obj), space, o); err != nil {
		t.Fatal(err)
	}
	for k, p := range spec.points {
		if _, ok := serial.points[k]; ok {
			shared = append(shared, p)
		} else {
			discarded = append(discarded, p)
		}
	}
	return discarded, shared
}

// failAt returns obj, failing (or panicking) at exactly the point bad.
func failAt(obj Objective, bad []float64, panics bool) func([]float64) (float64, error) {
	key := pointKey(bad)
	return func(p []float64) (float64, error) {
		if pointKey(p) == key {
			if panics {
				panic("scripted panic at " + key)
			}
			return 0, errors.New("scripted failure at " + key)
		}
		return obj(p), nil
	}
}

// TestMinimizeSpeculationFailures: a failure or panic raised in a
// speculative call counts exactly where the serial search would have
// scored that point. At a point only speculation scored, it is dropped
// and the result is the serial one; at a point the serial search scored,
// the error is returned, or the panic raised on the caller's goroutine,
// as without speculation.
func TestMinimizeSpeculationFailures(t *testing.T) {
	obj := func(p []float64) float64 { return 1e-3 * math.Abs(p[0]-120) }
	space := Space{Lo: []float64{0}, Hi: []float64{300}, NeighborRange: []float64{100}}
	opts := Options{MaxIter: 200, Seed: 3}
	discarded, shared := spectator(t, obj, space, opts)
	if len(discarded) == 0 || len(shared) < 2 {
		t.Fatalf("%d discarded and %d shared points: the case exercises nothing", len(discarded), len(shared))
	}
	want, err := serialMinimize(obj, space, opts)
	if err != nil {
		t.Fatal(err)
	}
	spec := opts
	spec.Speculate = true
	for _, bad := range discarded {
		res, err := MinimizeCtx(context.Background(), failAt(obj, bad, false), space, spec)
		if err != nil {
			t.Fatalf("a failure at discarded point %v surfaced: %v", bad, err)
		}
		if err := sameResult(res, want); err != nil {
			t.Fatalf("failure at discarded point %v: %v", bad, err)
		}
		res = panicFree(t, failAt(obj, bad, true), space, spec)
		if err := sameResult(res, want); err != nil {
			t.Fatalf("panic at discarded point %v: %v", bad, err)
		}
	}
	for _, bad := range shared {
		serialRes, serialErr := MinimizeCtx(context.Background(), failAt(obj, bad, false), space, opts)
		res, err := MinimizeCtx(context.Background(), failAt(obj, bad, false), space, spec)
		if serialErr == nil || err == nil || err.Error() != serialErr.Error() {
			t.Fatalf("failure at scored point %v: error %v, serial %v", bad, err, serialErr)
		}
		if err := sameResult(res, serialRes); err != nil {
			t.Fatalf("failure at scored point %v: %v", bad, err)
		}
		if got, wantP := panicValue(failAt(obj, bad, true), space, spec), panicValue(failAt(obj, bad, true), space, opts); got == nil || got != wantP {
			t.Fatalf("panic at scored point %v: raised %v, serial %v", bad, got, wantP)
		}
	}
}

// panicFree runs a search that must not panic.
func panicFree(t *testing.T, obj func([]float64) (float64, error), space Space, opts Options) Result {
	t.Helper()
	if v := panicValue(obj, space, opts); v != nil {
		t.Fatalf("search panicked: %v", v)
	}
	res, err := MinimizeCtx(context.Background(), obj, space, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// panicValue runs a search and returns what it panicked with, nil if
// it returned.
func panicValue(obj func([]float64) (float64, error), space Space, opts Options) (v any) {
	defer func() { v = recover() }()
	//lint:ignore errdrop only the panic matters here
	_, _ = MinimizeCtx(context.Background(), obj, space, opts)
	return nil
}

// TestMinimizeSpeculationWaitsForItsCall: a panic on the caller's
// goroutine leaves the search only after the speculative call in flight
// has returned. The initial point's call panics at once while the first
// proposal's call, on the second goroutine, is still sleeping.
func TestMinimizeSpeculationWaitsForItsCall(t *testing.T) {
	space := Space{Lo: []float64{0}, Hi: []float64{300}, NeighborRange: []float64{100}}
	opts := Options{MaxIter: 10, Seed: 1, Speculate: true}
	x0 := space.Lo[0] + dist.NewRNG(opts.Seed).Float64()*(space.Hi[0]-space.Lo[0])
	var specReturned atomic.Bool
	obj := func(p []float64) (float64, error) {
		if math.Float64bits(p[0]) == math.Float64bits(x0) {
			panic("caller-side panic")
		}
		time.Sleep(50 * time.Millisecond)
		specReturned.Store(true)
		return p[0], nil
	}
	if v := panicValue(obj, space, opts); v != "caller-side panic" {
		t.Fatalf("search raised %v, want the initial point's panic", v)
	}
	if !specReturned.Load() {
		t.Fatal("the search returned before its speculative call did")
	}
}

// TestMinimizeSpeculationHonoursContext: a done context starts no
// speculative call, and the walk is the serial one.
func TestMinimizeSpeculationHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	obj := func(p []float64) float64 { return (p[0] - 42) * (p[0] - 42) }
	space := Space{Lo: []float64{0}, Hi: []float64{300}, NeighborRange: []float64{100}}
	opts := Options{MaxIter: 100, Seed: 4}
	want, err := serialMinimize(obj, space, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Speculate = true
	got, err := MinimizeCtx(ctx, func(p []float64) (float64, error) { return obj(p), nil }, space, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResult(got, want); err != nil || got.Speculative != 0 || got.Evaluations != want.Evaluations {
		t.Fatalf("under a done context: %v; %d evaluations (%d speculative), serial %d", err, got.Evaluations, got.Speculative, want.Evaluations)
	}
}

// TestMinimizeSpeculationEndsItsGoroutine: the second goroutine lives
// only as long as its search.
func TestMinimizeSpeculationEndsItsGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	space := Space{Lo: []float64{0}, Hi: []float64{300}, NeighborRange: []float64{100}}
	for seed := uint64(0); seed < 20; seed++ {
		if _, err := Minimize(func(p []float64) float64 { return p[0] }, space, Options{MaxIter: 30, Seed: seed, Speculate: true}); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the searches, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// FuzzMinimizeSpeculation drives the speculating search against the
// serial oracle over seeds, 1 to 3 dimensions, MaxIter 0 to 64 and
// objectives with plateaus, exact ties, bound clamps and RT gaps small
// enough that regressions get accepted.
func FuzzMinimizeSpeculation(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(40), uint8(0), 1.0, 0.5)
	f.Add(uint64(2), uint8(1), uint8(64), uint8(1), 1e-3, 3.0)
	f.Add(uint64(3), uint8(2), uint8(0), uint8(2), 10.0, 0.05)
	f.Add(uint64(4), uint8(0), uint8(9), uint8(3), 1e-6, 1.0)
	f.Add(uint64(5), uint8(2), uint8(33), uint8(4), 0.3, 9.0)
	f.Fuzz(func(t *testing.T, seed uint64, dims, iters, shape uint8, scale, width float64) {
		if math.IsNaN(scale) || math.IsInf(scale, 0) || math.IsNaN(width) || math.IsInf(width, 0) {
			t.Skip()
		}
		n := int(dims%3) + 1
		w := math.Min(math.Abs(width), 1e6) + 1e-3
		s := math.Min(math.Abs(scale), 1e6)
		space := Space{Lo: make([]float64, n), Hi: make([]float64, n), NeighborRange: make([]float64, n)}
		for d := 0; d < n; d++ {
			space.Lo[d] = float64(d)
			space.Hi[d] = float64(d) + w
			// Windows up to twice the width: proposals clamp often.
			space.NeighborRange[d] = w * (0.1 + float64((int(shape)>>3+d)%4)*0.6)
		}
		var obj Objective
		switch shape % 5 {
		case 0: // bowl, scaled: small scales accept regressions
			obj = func(p []float64) float64 {
				v := 0.0
				for d, x := range p {
					c := space.Lo[d] + 0.3*w
					v += (x - c) * (x - c)
				}
				return s * v
			}
		case 1: // plateaus: exact ties across each step
			obj = func(p []float64) float64 { return s * math.Floor(4*(p[0]-space.Lo[0])/w) }
		case 2: // monotone: the search pins a bound and proposals clamp
			obj = func(p []float64) float64 { return -s * p[n-1] }
		case 3: // flat: every comparison ties
			obj = func(p []float64) float64 { return s }
		default: // rugged, a pure function of the point's bits
			obj = func(p []float64) float64 { return s * hashNoise(p) }
		}
		opts := Options{MaxIter: int(iters % 65), Seed: seed}
		want, err := serialMinimize(obj, space, opts)
		if err != nil {
			t.Fatal(err)
		}
		var rc recorder
		opts.Speculate = true
		got, err := Minimize(rc.wrap(obj), space, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResult(got, want); err != nil {
			t.Fatal(err)
		}
		if rc.calls != got.Evaluations {
			t.Fatalf("objective ran %d times, Evaluations %d", rc.calls, got.Evaluations)
		}
	})
}

// spin is a pure objective that burns about n floating-point steps.
func spin(n int) Objective {
	return func(p []float64) float64 {
		v := p[0]
		for i := 0; i < n; i++ {
			v = v*0.999999 + 1e-9
		}
		return (v - 42) * (v - 42)
	}
}

// BenchmarkMinimizeSpeculation times a 60-iteration timeout search,
// serial and speculating, over objectives from free to ~300 µs a call,
// and reports the wall time per consumed evaluation. At cost 0 the
// difference between the two is the handoff to the second goroutine.
func BenchmarkMinimizeSpeculation(b *testing.B) {
	space := Space{Lo: []float64{0}, Hi: []float64{300}, NeighborRange: []float64{100}}
	for _, steps := range []int{0, 2000, 20000, 40000, 80000, 200000} {
		for _, spec := range []bool{false, true} {
			name := fmt.Sprintf("steps=%d/speculate=%v", steps, spec)
			b.Run(name, func(b *testing.B) {
				obj := spin(steps)
				consumed := 0
				for i := 0; i < b.N; i++ {
					res, err := Minimize(obj, space, Options{MaxIter: 60, Seed: uint64(i), Speculate: spec})
					if err != nil {
						b.Fatal(err)
					}
					consumed += res.Evaluations - res.Speculative
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(consumed), "ns/eval")
			})
		}
	}
}
