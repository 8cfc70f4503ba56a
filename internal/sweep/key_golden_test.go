package sweep

import (
	"testing"

	"mdsprint/internal/dist"
	"mdsprint/internal/queuesim"
	"mdsprint/internal/queuesim/dispatch"
)

// TestFingerprintGoldenKeys pins the exact key bytes of a spread of
// evaluation points. Memo keys are persisted nowhere, but a change to the
// encoding silently changes which evaluations share a cache entry, so
// the bytes only change with a deliberate format version bump.
func TestFingerprintGoldenKeys(t *testing.T) {
	r := dist.NewRNG(9)
	samples := make([]float64, 1500)
	for i := range samples {
		samples[i] = 50 + 100*r.Float64()
	}
	point := func(mut func(*queuesim.Params)) queuesim.Params {
		p := baseParams()
		mut(&p)
		return p
	}
	cases := []struct {
		name string
		p    queuesim.Params
		reps int
		want string
	}{
		{"base", baseParams(), 2, "f28c3c59d799e1669be3fdf0484c390c"},
		{"pareto arrivals", point(func(p *queuesim.Params) { p.ArrivalKind = dist.KindPareto }), 1,
			"c4d3024fac12aae8a3aaa0a1a8d32300"},
		{"deterministic arrivals", point(func(p *queuesim.Params) { p.ArrivalKind = dist.KindDeterministic }), 3,
			"905a64e90c0a126b6e372bf3f3bb7983"},
		{"explicit arrivals", point(func(p *queuesim.Params) { p.Arrival = dist.NewSequence([]float64{10, 200, 40}, 0.2) }), 1,
			"7d48fee9e7927b00a2d278a34458bdfe"},
		{"empirical service", point(func(p *queuesim.Params) { p.Service = dist.NewEmpirical(samples) }), 4,
			"f32bb4270e1567aa660a2a1d16a4fdd3"},
		{"serpt", point(func(p *queuesim.Params) { p.Discipline = queuesim.Discipline{Kind: queuesim.DiscSERPT, PredictCV: 0.3} }), 2,
			"057d649a1b10e1eb01d44fed27243e85"},
		{"jsq fan-out", point(func(p *queuesim.Params) {
			p.Servers = 3
			p.Dispatch = dispatch.MustParse("jsq")
		}), 2, "0f8e91f8b2a53c034dfa176106e2d7fd"},
	}
	for _, c := range cases {
		if got := mustKey(t, c.p, c.reps).String(); got != c.want {
			t.Errorf("%s: key %s, want %s", c.name, got, c.want)
		}
	}
}
