package tier

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"mdsprint/internal/obs"
	"mdsprint/internal/queuesim"
	"mdsprint/internal/sweep"
)

// goldenStream reaches every rung of the ladder under the default spec:
// M/M/1 tasks the analytic tier carries (and one whose error model
// blows the bound), sprint configs at ~800 and ~4,000 queries for the
// short and full tiers, repeats for the cache tier and a traced task for
// the bypass.
func goldenStream() []sweep.Task {
	traced := mm1Task(0.5, 1, 4000, 7)
	traced.Params.Tracer = obs.NewRingTracer(64)
	return []sweep.Task{
		mm1Task(0.3, 1, 40000, 1),
		mm1Task(0.6, 1, 40000, 2),
		mm1Task(0.95, 1, 400, 3),
		sprintTask(800, 4),
		sprintTask(4000, 5),
		sprintTask(800, 4),
		mm1Task(0.95, 1, 400, 3),
		sprintTask(4000, 5),
		traced,
		mm1Task(0.85, 1, 2000, 6),
		sprintTask(16000, 10),
	}
}

// goldenDigest accumulates the Float64bits of answers, decisions and
// stats into one FNV-64a digest.
type goldenDigest struct{ b []byte }

func (g *goldenDigest) u(v uint64)  { g.b = binary.LittleEndian.AppendUint64(g.b, v) }
func (g *goldenDigest) f(v float64) { g.u(math.Float64bits(v)) }

func (g *goldenDigest) answer(p queuesim.Prediction, d Decision, err error) {
	g.f(p.MeanRT)
	g.f(p.P95RT)
	g.f(p.P99RT)
	g.u(uint64(p.Replications))
	g.u(uint64(p.QueriesSimulated))
	g.u(uint64(d.Tier))
	g.f(d.Bound)
	g.f(d.ErrEstimate)
	g.u(uint64(d.Escalations))
	if err != nil {
		g.u(1)
	} else {
		g.u(0)
	}
}

func (g *goldenDigest) stats(s Stats) {
	for _, v := range []uint64{s.Answers, s.Analytic, s.Cache, s.Short, s.Full,
		s.AnalyticGates, s.AnalyticBounds, s.CacheMisses, s.WideCIs, s.Bypasses} {
		g.u(v)
	}
}

func (g *goldenDigest) sum() uint64 {
	h := fnv.New64a()
	//lint:ignore errdrop fnv's Write is documented to never fail
	h.Write(g.b)
	return h.Sum64()
}

// TestTierGoldenDigest pins Estimate bit for bit under six specs: the
// answers and decisions over the stream, then the estimator's Stats.
func TestTierGoldenDigest(t *testing.T) {
	specs := []struct {
		name string
		spec Spec
		want uint64
	}{
		{"default", Spec{}, 0xe061b59be3c3e4e9},
		{"bound=0.3", Spec{Bound: 0.3}, 0xef727b812ac19145},
		{"bound=0.5,reps=4", Spec{Bound: 0.5, ShortReps: 4}, 0x23e08622e452410a},
		{"-analytic", Spec{NoAnalytic: true}, 0xb49786825b27ed43},
		{"-cache", Spec{NoCache: true}, 0x78a6bd6bf0d0af13},
		{"-short", Spec{NoShort: true}, 0xa482a018a3387274},
	}
	stream := goldenStream()
	var total Stats
	for _, sc := range specs {
		var g goldenDigest
		est := newTestEstimator(t, sc.spec, 2)
		for _, task := range stream {
			p, d, err := est.Estimate(task)
			g.answer(p, d, err)
		}
		s := est.Stats()
		g.stats(s)
		total.Analytic += s.Analytic
		total.Cache += s.Cache
		total.Short += s.Short
		total.Full += s.Full
		total.Bypasses += s.Bypasses
		if got := g.sum(); got != sc.want {
			t.Errorf("%s: digest %#016x, want %#016x", sc.name, got, sc.want)
		}
	}
	if total.Analytic == 0 || total.Cache == 0 || total.Short == 0 || total.Full == 0 || total.Bypasses == 0 {
		t.Fatalf("stream missed a tier: %+v", total)
	}
}
