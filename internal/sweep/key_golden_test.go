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
		{"base", baseParams(), 2, "4f81684675d2d8a78f323c91d07460bf"},
		{"pareto arrivals", point(func(p *queuesim.Params) { p.ArrivalKind = dist.KindPareto }), 1,
			"e7df21f337d3d2878b9aff9ae7e7a0a7"},
		{"deterministic arrivals", point(func(p *queuesim.Params) { p.ArrivalKind = dist.KindDeterministic }), 3,
			"8d43e69e6d7db8875cf85c86d116d760"},
		{"explicit arrivals", point(func(p *queuesim.Params) { p.Arrival = dist.NewSequence([]float64{10, 200, 40}, 0.2) }), 1,
			"aa75aac8ffebd1f3e7edd40d764191e5"},
		{"empirical service", point(func(p *queuesim.Params) { p.Service = dist.NewEmpirical(samples) }), 4,
			"0a363e6ccf465b0c4f09ddd688ddc149"},
		{"serpt", point(func(p *queuesim.Params) { p.Discipline = queuesim.Discipline{Kind: queuesim.DiscSERPT, PredictCV: 0.3} }), 2,
			"051ade64d102306775d8c9d80deff82c"},
		{"jsq fan-out", point(func(p *queuesim.Params) {
			p.Servers = 3
			p.Dispatch = dispatch.JSQ()
		}), 2, "6135db12ad17585627303d5e70fb6a2c"},
	}
	for _, c := range cases {
		if got := mustKey(t, c.p, c.reps).String(); got != c.want {
			t.Errorf("%s: key %s, want %s", c.name, got, c.want)
		}
	}
}
