package sweep

import (
	"math"
	"testing"

	"mdsprint/internal/dist"
	"mdsprint/internal/obs"
	"mdsprint/internal/queuesim"
	"mdsprint/internal/sprint"
)

func baseParams() queuesim.Params {
	return queuesim.Params{
		ArrivalRate:   0.01,
		ArrivalKind:   dist.KindExponential,
		Service:       dist.NewExponential(0.02),
		ServiceRate:   0.02,
		SprintRate:    0.05,
		Timeout:       60,
		BudgetSeconds: 100,
		RefillTime:    500,
		Refill:        sprint.RefillWindow,
		Slots:         1,
		NumQueries:    1000,
		Warmup:        100,
		Seed:          7,
	}
}

func mustKey(t *testing.T, p queuesim.Params, reps int) Key {
	t.Helper()
	k, err := Fingerprint(p, reps)
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	return k
}

// TestFingerprintCanonicalEquality: spellings of the same simulation must
// share a key — defaults applied explicitly or left zero, arrival process
// named or derived, empirical samples freshly allocated.
func TestFingerprintCanonicalEquality(t *testing.T) {
	base := baseParams()
	want := mustKey(t, base, 2)
	variants := []struct {
		name string
		mut  func(*queuesim.Params)
	}{
		{"zero slots (defaults to 1)", func(p *queuesim.Params) { p.Slots = 0 }},
		{"zero arrival kind (defaults to exponential)", func(p *queuesim.Params) { p.ArrivalKind = "" }},
		{"explicit arrival dist equal to derived", func(p *queuesim.Params) {
			p.Arrival = dist.ForRate(dist.KindExponential, p.ArrivalRate)
		}},
		{"tracer attached (excluded from key)", func(p *queuesim.Params) { p.Tracer = obs.NewRingTracer(4) }},
	}
	for _, v := range variants {
		p := base
		v.mut(&p)
		if got := mustKey(t, p, 2); got != want {
			t.Errorf("%s: key %v != base %v", v.name, got, want)
		}
	}
	// Zero NumQueries canonicalizes to the simulator default (1000).
	p := base
	p.NumQueries = 0
	if got := mustKey(t, p, 2); got != want {
		t.Errorf("zero NumQueries: key %v != base %v", got, want)
	}
	// Freshly built but value-equal empirical services hash identically.
	a, b := base, base
	a.Service = dist.NewEmpirical([]float64{10, 20, 30})
	a.ServiceRate = 0.05
	b.Service = dist.NewEmpirical([]float64{10, 20, 30})
	b.ServiceRate = 0.05
	if mustKey(t, a, 1) != mustKey(t, b, 1) {
		t.Error("equal empirical services produced different keys")
	}
	// Reps <= 0 canonicalizes to 1.
	if mustKey(t, base, 0) != mustKey(t, base, 1) {
		t.Error("reps 0 and 1 should share a key")
	}
}

// TestFingerprintEmpiricalByContent: an Empirical service is keyed by
// the content of its samples, not by the slice it was built from, and a
// one-ULP change to a single sample is a different service.
func TestFingerprintEmpiricalByContent(t *testing.T) {
	r := dist.NewRNG(3)
	samples := make([]float64, 1500)
	for i := range samples {
		samples[i] = 50 + 100*r.Float64()
	}
	withService := func(xs []float64) queuesim.Params {
		p := baseParams()
		p.Service = dist.NewEmpirical(xs)
		return p
	}
	want := mustKey(t, withService(samples), 2)
	if got := mustKey(t, withService(append([]float64(nil), samples...)), 2); got != want {
		t.Errorf("equal samples from a different slice: key %v, want %v", got, want)
	}
	for _, i := range []int{0, 777, len(samples) - 1} {
		bumped := append([]float64(nil), samples...)
		bumped[i] = math.Nextafter(bumped[i], math.Inf(1))
		if got := mustKey(t, withService(bumped), 2); got == want {
			t.Errorf("sample %d moved one ULP: key unchanged (%v)", i, got)
		}
	}
}

// TestFingerprintFieldSensitivity: perturbing any single influential
// field must change the key. This is the property that makes memoization
// safe — no two semantically different tasks may collide by construction.
func TestFingerprintFieldSensitivity(t *testing.T) {
	base := baseParams()
	want := mustKey(t, base, 2)
	perturbs := []struct {
		name string
		mut  func(*queuesim.Params)
	}{
		{"ArrivalRate", func(p *queuesim.Params) { p.ArrivalRate *= 1.0000001 }},
		{"ArrivalKind", func(p *queuesim.Params) { p.ArrivalKind = dist.KindPareto }},
		{"Arrival dist", func(p *queuesim.Params) { p.Arrival = dist.Deterministic{Value: 100} }},
		{"Service dist", func(p *queuesim.Params) { p.Service = dist.NewExponential(0.021) }},
		{"ServiceRate", func(p *queuesim.Params) { p.ServiceRate += 1e-9 }},
		{"SprintRate", func(p *queuesim.Params) { p.SprintRate += 1e-9 }},
		{"Timeout", func(p *queuesim.Params) { p.Timeout += 1 }},
		{"Timeout sign", func(p *queuesim.Params) { p.Timeout = -1 }},
		{"BudgetSeconds", func(p *queuesim.Params) { p.BudgetSeconds += 1 }},
		{"RefillTime", func(p *queuesim.Params) { p.RefillTime += 1 }},
		{"Refill mode", func(p *queuesim.Params) { p.Refill = sprint.RefillContinuous }},
		{"Warmup zero", func(p *queuesim.Params) { p.Warmup = 0 }},
		{"Slots", func(p *queuesim.Params) { p.Slots = 2 }},
		{"NumQueries", func(p *queuesim.Params) { p.NumQueries = 2000 }},
		{"Warmup", func(p *queuesim.Params) { p.Warmup = 200 }},
		{"Seed", func(p *queuesim.Params) { p.Seed++ }},
	}
	seen := map[Key]string{want: "base"}
	for _, v := range perturbs {
		p := base
		v.mut(&p)
		got := mustKey(t, p, 2)
		if got == want {
			t.Errorf("perturbing %s did not change the key", v.name)
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("perturbations %s and %s collided", v.name, prev)
		}
		seen[got] = v.name
	}
	// Reps is part of the key too.
	if mustKey(t, base, 3) == want {
		t.Error("changing reps did not change the key")
	}
}

// TestFingerprintQuick fuzzes random parameter points: canonical equality
// of two independently-built Params values must imply key equality, and
// distinct points must (overwhelmingly) get distinct keys.
func TestFingerprintQuick(t *testing.T) {
	r := dist.NewRNG(42)
	seen := make(map[Key]queuesim.Params)
	for i := 0; i < 500; i++ {
		p := queuesim.Params{
			ArrivalRate:   0.001 + r.Float64()*0.02,
			Service:       dist.NewExponential(0.02 + r.Float64()*0.05),
			ServiceRate:   0.02 + r.Float64()*0.05,
			SprintRate:    0.05 + r.Float64()*0.1,
			Timeout:       float64(r.Intn(200)),
			BudgetSeconds: float64(r.Intn(500)),
			RefillTime:    100 + float64(r.Intn(900)),
			NumQueries:    100 + r.Intn(1000),
			Seed:          r.Uint64(),
		}
		reps := 1 + r.Intn(3)
		k := mustKey(t, p, reps)
		// Rebuilding the same point from identical field values must
		// reproduce the key (Fingerprint is a pure function).
		q := p
		q.Service = dist.NewExponential(p.Service.(dist.Exponential).Rate)
		if mustKey(t, q, reps) != k {
			t.Fatalf("fingerprint not reproducible at iteration %d", i)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("random points collided: %+v vs %+v", p, prev)
		}
		seen[k] = p
	}
}
