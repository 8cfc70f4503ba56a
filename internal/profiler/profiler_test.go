package profiler

import (
	"math"
	"reflect"
	"testing"

	"mdsprint/internal/dist"
	"mdsprint/internal/mech"
	"mdsprint/internal/sprint"
	"mdsprint/internal/workload"
)

func jacobiProfiler() *Profiler {
	return &Profiler{
		Mix:           workload.SingleClass(workload.MustByName("Jacobi")),
		Mechanism:     mech.DVFS{},
		QueriesPerRun: 600,
		Warmup:        60,
		Seed:          7,
	}
}

func TestMeasureServiceRateNearNominal(t *testing.T) {
	p := jacobiProfiler()
	mu, samples, dur := p.MeasureServiceRate()
	nominal := sprint.QPH(51)
	// Load inflation can push the measured rate a few percent below
	// nominal, never above by much.
	if mu > nominal*1.02 || mu < nominal*0.90 {
		t.Fatalf("measured mu %v qph, nominal %v qph", sprint.ToQPH(mu), 51.0)
	}
	if len(samples) != 600 {
		t.Fatalf("got %d service samples, want 600", len(samples))
	}
	if dur <= 0 {
		t.Fatal("non-positive profiling duration")
	}
}

func TestMeasureMarginalRateReflectsSpeedup(t *testing.T) {
	p := jacobiProfiler()
	mu, _, _ := p.MeasureServiceRate()
	mum, _ := p.MeasureMarginalRate()
	speedup := mum / mu
	want := workload.MustByName("Jacobi").DVFSSpeedup()
	// Toggle overhead shaves a little off the ideal speedup.
	if speedup > want*1.02 || speedup < want*0.90 {
		t.Fatalf("marginal speedup %v, want ~%v", speedup, want)
	}
}

func TestMarginalAboveServiceForAllMechanisms(t *testing.T) {
	for _, m := range mech.All() {
		p := jacobiProfiler()
		p.Mechanism = m
		mu, _, _ := p.MeasureServiceRate()
		mum, _ := p.MeasureMarginalRate()
		if mum <= mu {
			t.Errorf("%s: mu_m %v <= mu %v", m.Name(), mum, mu)
		}
	}
}

func TestRunConditionObservation(t *testing.T) {
	p := jacobiProfiler()
	cond := Condition{
		Utilization: 0.75, ArrivalKind: dist.KindExponential,
		Timeout: 60, RefillTime: 200, BudgetPct: 0.4,
	}
	obs, dur := p.RunCondition(cond, 99)
	if obs.MeanRT <= 0 || math.IsNaN(obs.MeanRT) {
		t.Fatalf("bad mean RT %v", obs.MeanRT)
	}
	if obs.P99RT < obs.P95RT || obs.P95RT < obs.MeanRT*0.5 {
		t.Fatalf("tail stats inconsistent: %+v", obs)
	}
	if obs.SprintedFrac <= 0 || obs.SprintedFrac > 1 {
		t.Fatalf("sprinted fraction %v", obs.SprintedFrac)
	}
	if dur <= 0 {
		t.Fatal("non-positive duration")
	}
}

func TestProfileDatasetShape(t *testing.T) {
	p := jacobiProfiler()
	p.QueriesPerRun = 300
	conds := SmallGrid().Conditions()
	ds := p.Profile(conds)
	if len(ds.Observations) != len(conds) {
		t.Fatalf("got %d observations, want %d", len(ds.Observations), len(conds))
	}
	if ds.MixName != "Jacobi" || ds.MechName != "DVFS" {
		t.Fatalf("dataset identity: %s/%s", ds.MixName, ds.MechName)
	}
	if ds.MarginalSpeedup() <= 1 {
		t.Fatalf("marginal speedup %v <= 1", ds.MarginalSpeedup())
	}
	if ds.ProfilingSeconds <= 0 {
		t.Fatal("profiling cost not tracked")
	}
	for i, obs := range ds.Observations {
		if obs.Cond != conds[i] {
			t.Fatalf("observation %d condition mismatch", i)
		}
		if obs.MeanRT <= 0 {
			t.Fatalf("observation %d: mean RT %v", i, obs.MeanRT)
		}
	}
}

func TestProfileDeterministicAcrossWorkerCounts(t *testing.T) {
	conds := SmallGrid().Sample(4, 1)
	p1 := jacobiProfiler()
	p1.QueriesPerRun = 200
	p1.Workers = 1
	p4 := jacobiProfiler()
	p4.QueriesPerRun = 200
	p4.Workers = 4
	a := p1.Profile(conds)
	b := p4.Profile(conds)
	for i := range a.Observations {
		if a.Observations[i].MeanRT != b.Observations[i].MeanRT {
			t.Fatalf("observation %d differs across worker counts", i)
		}
	}
}

func TestHigherUtilizationRaisesRT(t *testing.T) {
	p := jacobiProfiler()
	lo, _ := p.RunCondition(Condition{Utilization: 0.3, ArrivalKind: dist.KindExponential, Timeout: -1, RefillTime: 200, BudgetPct: 0}, 5)
	hi, _ := p.RunCondition(Condition{Utilization: 0.95, ArrivalKind: dist.KindExponential, Timeout: -1, RefillTime: 200, BudgetPct: 0}, 5)
	if hi.MeanRT <= lo.MeanRT {
		t.Fatalf("RT at 95%% util (%v) <= RT at 30%% (%v)", hi.MeanRT, lo.MeanRT)
	}
}

func TestPaperGridMatchesSection3(t *testing.T) {
	g := PaperGrid()
	if len(g.Utilizations) != 4 || len(g.Timeouts) != 7 || len(g.RefillTimes) != 5 || len(g.BudgetPcts) != 7 {
		t.Fatalf("paper grid dimensions wrong: %+v", g)
	}
	want := 4 * 2 * 7 * 5 * 7
	if got := len(g.Conditions()); got != want {
		t.Fatalf("cross product %d, want %d", got, want)
	}
}

func TestDenseGridAddsUtilizations(t *testing.T) {
	g := DenseGrid()
	found60, found85 := false, false
	for _, u := range g.Utilizations {
		if u == 0.60 {
			found60 = true
		}
		if u == 0.85 {
			found85 = true
		}
	}
	if !found60 || !found85 {
		t.Fatalf("dense grid missing Section 3.3 centroids: %v", g.Utilizations)
	}
}

func TestGridSample(t *testing.T) {
	g := PaperGrid()
	s := g.Sample(100, 3)
	if len(s) != 100 {
		t.Fatalf("sampled %d, want 100", len(s))
	}
	seen := map[Condition]bool{}
	for _, c := range s {
		if seen[c] {
			t.Fatal("sample contains duplicates")
		}
		seen[c] = true
	}
	// Sampling more than available returns everything.
	if got := len(SmallGrid().Sample(10000, 1)); got != len(SmallGrid().Conditions()) {
		t.Fatalf("oversample returned %d", got)
	}
	// Deterministic.
	s2 := g.Sample(100, 3)
	for i := range s {
		if s[i] != s2[i] {
			t.Fatal("sampling not deterministic")
		}
	}
}

func TestSplitObservations(t *testing.T) {
	obs := make([]Observation, 10)
	for i := range obs {
		obs[i].MeanRT = float64(i)
	}
	train, test := SplitObservations(obs, 0.7, 2)
	if len(train) != 7 || len(test) != 3 {
		t.Fatalf("split sizes %d/%d", len(train), len(test))
	}
}

func TestSplitObservationsDisjoint(t *testing.T) {
	obs := make([]Observation, 200)
	for i := range obs {
		obs[i].MeanRT = float64(i)
	}
	train, test := SplitObservations(obs, 0.8, 11)
	if len(train) != 160 || len(test) != 40 {
		t.Fatalf("split sizes %d/%d, want 160/40", len(train), len(test))
	}
	seen := map[float64]bool{}
	for _, o := range train {
		seen[o.MeanRT] = true
	}
	for _, o := range test {
		if seen[o.MeanRT] {
			t.Fatal("train and test overlap")
		}
		seen[o.MeanRT] = true
	}
	if len(seen) != len(obs) {
		t.Fatalf("split covers %d of %d observations", len(seen), len(obs))
	}
}

func TestConditionPolicy(t *testing.T) {
	c := Condition{Timeout: 60, RefillTime: 500, BudgetPct: 0.2, Speedup: 3}
	p := c.Policy()
	if p.BudgetSeconds != 100 {
		t.Fatalf("budget %v, want 100 sprint-seconds", p.BudgetSeconds)
	}
	if p.Speedup != 3 {
		t.Fatalf("speedup %v, want 3", p.Speedup)
	}
	// Zero speedup means "mechanism max".
	if got := (Condition{Timeout: 60, RefillTime: 500, BudgetPct: 0.2}).Policy().Speedup; got < 1e6 {
		t.Fatalf("sentinel speedup %v too small", got)
	}
}

// TestDatasetServiceDist: the service distribution is nil without
// samples, built once from them, and the same value for every caller,
// concurrent first callers included.
func TestDatasetServiceDist(t *testing.T) {
	if d := (&Dataset{}).ServiceDist(); d != nil {
		t.Fatalf("empty dataset: ServiceDist %v, want nil", d)
	}
	ds := &Dataset{ServiceSamples: []float64{3, 1, 2}}
	got := make([]*dist.Empirical, 8)
	done := make(chan int)
	for i := range got {
		go func(i int) {
			got[i] = ds.ServiceDist()
			done <- i
		}(i)
	}
	for range got {
		<-done
	}
	for i, d := range got {
		if d == nil || d != got[0] || d != ds.ServiceDist() {
			t.Fatalf("caller %d got %p, want the shared %p", i, d, got[0])
		}
	}
	if d := got[0]; d.Len() != 3 || d.Mean() != 2 {
		t.Fatalf("distribution over %d samples with mean %v, want 3 and 2", d.Len(), d.Mean())
	}
}

// TestConditionsOrder pins the cross product's order, which fixes what
// Sample picks for a seed: utilization varies slowest, the budget fastest.
func TestConditionsOrder(t *testing.T) {
	g := SmallGrid()
	var want []Condition
	for _, u := range g.Utilizations {
		for _, k := range g.ArrivalKinds {
			for _, to := range g.Timeouts {
				for _, rt := range g.RefillTimes {
					for _, b := range g.BudgetPcts {
						want = append(want, Condition{Utilization: u, ArrivalKind: k, Timeout: to, RefillTime: rt, BudgetPct: b})
					}
				}
			}
		}
	}
	if got := g.Conditions(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Conditions order:\n got %v\nwant %v", got, want)
	}
}
