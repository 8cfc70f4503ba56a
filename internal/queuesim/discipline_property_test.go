package queuesim

// Property tests for the discipline layer: the explicit-FIFO spelling is
// bit-identical to the reference engine, and every discipline —
// under randomly drawn dist specs — preserves work conservation (same
// single-server busy periods, so the same makespan) and Little's law as
// an exact sample-path identity.

import (
	"math"
	"testing"
	"testing/quick"

	"mdsprint/internal/dist"
	"mdsprint/internal/obs"
)

// parseDist is dist.ParseDist for the property tables' static specs.
func parseDist(t *testing.T, spec string) dist.Dist {
	t.Helper()
	d, err := dist.ParseDist(spec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDifferentialExplicitFIFODiscipline re-runs every differential
// config with the discipline machinery explicitly engaged (spelled-out
// FIFO, explicit single server): results and tracer event sequences must
// stay bit-identical to the reference engine, proving the pluggable
// ready-queue layer is free for the paper's FIFO model.
func TestDifferentialExplicitFIFODiscipline(t *testing.T) {
	for _, cfg := range diffConfigs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			for _, seed := range diffSeeds {
				p := cfg.p
				p.Seed = seed

				pr := p
				refTracer, refEvents := captureTracer()
				pr.Tracer = refTracer
				want, err := runReference(pr)
				if err != nil {
					t.Fatalf("seed %d: reference: %v", seed, err)
				}

				pp := p
				if pp.Discipline, err = ParseDiscipline("FIFO"); err != nil {
					t.Fatal(err)
				}
				pp.Servers = 1
				gotTracer, gotEvents := captureTracer()
				pp.Tracer = gotTracer
				got, err := Run(pp)
				if err != nil {
					t.Fatalf("seed %d: explicit fifo: %v", seed, err)
				}

				requireResultsIdentical(t, got, want)
				requireEventsIdentical(t, *gotEvents, *refEvents)
			}
		})
	}
}

// propArrivalSpecs and propServiceSpecs are the dist-spec pools the
// randomized properties draw from.
var propArrivalSpecs = []string{
	"exp(8)", "uniform(0.05,0.2)", "pareto(0.05,1.8)", "erlang(2,10)",
}

var propServiceSpecs = []string{
	"exp(10)", "lognormal(0.1,0.6)", "tpareto(0.02,1.5,5)", "uniform(0.02,0.2)", "det(0.1)",
}

var propDisciplines = []Discipline{
	{Kind: DiscFIFO},
	{Kind: DiscLIFO},
	{Kind: DiscSRPT},
	{Kind: DiscSERPT, PredictCV: 0.5},
	{Kind: DiscPS},
}

// TestDisciplineWorkConservationAndLittle quick.Checks two path-exact
// properties over random (arrival, service, seed) draws, for every
// discipline on a single-slot server:
//
//   - Work conservation: no discipline idles the server while work
//     remains, so the busy periods — and hence the makespan (last
//     departure time) — are identical across disciplines given the same
//     arrival and service draws. (SERPT's prediction noise comes from a
//     separate RNG stream precisely so this comparison is meaningful.)
//   - Little's law: with the horizon starting and ending empty, the time
//     integral of N(t) equals the sum of per-query sojourns exactly (to
//     float round-off), discipline by discipline.
func TestDisciplineWorkConservationAndLittle(t *testing.T) {
	prop := func(seed uint64, arrPick, svcPick uint8) bool {
		arr := parseDist(t, propArrivalSpecs[int(arrPick)%len(propArrivalSpecs)])
		svc := parseDist(t, propServiceSpecs[int(svcPick)%len(propServiceSpecs)])
		base := Params{
			ArrivalRate:   8,
			Arrival:       arr,
			Service:       svc,
			ServiceRate:   10,
			Timeout:       -1,
			BudgetSeconds: 0,
			NumQueries:    400,
			Warmup:        0,
			Seed:          seed,
		}
		var fifoMakespan float64
		ok := true
		for _, d := range propDisciplines {
			p := base
			p.Discipline = d
			tr := obs.NewRingTracer(8 * p.NumQueries)
			p.Tracer = tr
			res, err := Run(p)
			if err != nil {
				t.Errorf("%v: %v", d, err)
				return false
			}

			// Makespan equality across disciplines (float round-off
			// differs because summation order does).
			if d.Kind == DiscFIFO {
				fifoMakespan = res.Duration
			} else if rel := math.Abs(res.Duration-fifoMakespan) / fifoMakespan; rel > 1e-9 {
				t.Errorf("seed %d arr=%s svc=%s: %v makespan %v differs from FIFO's %v (rel %v)",
					seed, arr, svc, d, res.Duration, fifoMakespan, rel)
				ok = false
			}

			// Little's law as an exact identity on the traced path.
			integral, horizon := integrateInSystem(t, tr.Events())
			var sumSojourn float64
			for _, e := range tr.Events() {
				if e.Type == obs.EvDeparture {
					sumSojourn += e.Value
				}
			}
			if horizon <= 0 {
				t.Errorf("%v: empty horizon", d)
				return false
			}
			if math.Abs(integral-sumSojourn) > 1e-7*math.Max(1, sumSojourn) {
				t.Errorf("seed %d arr=%s svc=%s: %v integral N dt %v != sum sojourns %v",
					seed, arr, svc, d, integral, sumSojourn)
				ok = false
			}

			// And the traced sojourns must be the reported RTs.
			if len(res.RTs) != p.NumQueries {
				t.Errorf("%v: %d RTs, want %d", d, len(res.RTs), p.NumQueries)
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestDisciplineInvariantsUnderSprinting extends the invariant net to
// sprint-enabled runs for the disciplines that support sprinting: every
// reported RT is positive, sprint seconds never exceed supply, and the
// preemptive disciplines keep their counters consistent.
func TestDisciplineInvariantsUnderSprinting(t *testing.T) {
	prop := func(seed uint64, svcPick uint8, timeoutBump float64) bool {
		svc := parseDist(t, propServiceSpecs[int(svcPick)%len(propServiceSpecs)])
		timeout := math.Mod(math.Abs(timeoutBump), 0.3)
		ok := true
		for _, d := range propDisciplines {
			if d.Kind == DiscPS {
				continue // PS rejects sprinting by design
			}
			p := Params{
				ArrivalRate:   9,
				Service:       svc,
				ServiceRate:   10,
				SprintRate:    18,
				Timeout:       timeout,
				BudgetSeconds: 2,
				RefillTime:    40,
				NumQueries:    400,
				Discipline:    d,
				Seed:          seed,
			}
			res, err := Run(p)
			if err != nil {
				t.Errorf("%v: %v", d, err)
				return false
			}
			for i, rt := range res.RTs {
				if !(rt > 0) {
					t.Errorf("%v: RTs[%d] = %v, want > 0", d, i, rt)
					ok = false
					break
				}
			}
			if supply := res.BudgetSupply(p); res.SprintSeconds > supply*(1+1e-9) {
				t.Errorf("%v: sprint seconds %v exceed supply %v", d, res.SprintSeconds, supply)
				ok = false
			}
			preemptive := d.Kind == DiscSRPT || d.Kind == DiscSERPT
			if !preemptive && res.Preemptions != 0 {
				t.Errorf("%v: %d preemptions from a non-preemptive discipline", d, res.Preemptions)
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
