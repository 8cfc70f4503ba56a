package profiler

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"mdsprint/internal/dist"
	"mdsprint/internal/mech"
	"mdsprint/internal/workload"
)

// hashDataset folds every field of ds (floats by their exact bit
// patterns) into one FNV-64a digest.
func hashDataset(ds *Dataset) uint64 {
	var b []byte
	u := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	f := func(v float64) { u(math.Float64bits(v)) }
	s := func(v string) {
		u(uint64(len(v)))
		b = append(b, v...)
	}
	s(ds.MixName)
	s(ds.MechName)
	f(ds.ServiceRate)
	f(ds.MarginalRate)
	u(uint64(len(ds.ServiceSamples)))
	for _, v := range ds.ServiceSamples {
		f(v)
	}
	u(uint64(len(ds.Observations)))
	for _, o := range ds.Observations {
		f(o.Cond.Utilization)
		s(string(o.Cond.ArrivalKind))
		f(o.Cond.Timeout)
		f(o.Cond.RefillTime)
		f(o.Cond.BudgetPct)
		f(o.Cond.Speedup)
		f(o.ArrivalRate)
		f(o.MeanRT)
		f(o.P95RT)
		f(o.P99RT)
		f(o.SprintedFrac)
	}
	f(ds.ProfilingSeconds)
	h := fnv.New64a()
	//lint:ignore errdrop fnv's Write is documented to never fail
	h.Write(b)
	return h.Sum64()
}

// TestGoldenDataset pins a small profiled dataset bit for bit: the
// service samples, both measured rates and every observation's mean and
// tail response times. Profiling datasets are the only thing the models
// see of the testbed, so a change to the testbed or to how the profiler
// summarizes its runs must leave this digest unchanged.
func TestGoldenDataset(t *testing.T) {
	p := &Profiler{
		Mix:           workload.MixI(),
		Mechanism:     mech.CoreScale{},
		QueriesPerRun: 250,
		Warmup:        25,
		Replications:  2,
		Seed:          21,
		Workers:       2,
	}
	g := SmallGrid()
	g.ArrivalKinds = []dist.Kind{dist.KindExponential, dist.KindPareto}
	ds := p.Profile(g.Sample(6, 3))
	const want = 0x12744a767da20d71
	if got := hashDataset(ds); got != want {
		t.Errorf("dataset digest %#016x, want %#016x", got, uint64(want))
	}
}
