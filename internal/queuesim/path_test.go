package queuesim_test

// Sample-path replay suite: a Runner that has already simulated one
// policy may replay the same arrivals and service draws for the next
// (common random numbers), but every run must still equal a fresh
// Runner's run of the same Params bit for bit. One shared Runner walks a
// policy schedule that changes the timeout, sprint rate, budget, seed and
// query count back and forth; each step is checked against a fresh
// Runner.

import (
	"math"
	"testing"

	"mdsprint/internal/dist"
	"mdsprint/internal/queuesim"
	"mdsprint/internal/queuesim/dispatch"
)

// pathStep is one run of the schedule: the policy fields it sets on the
// base Params.
type pathStep struct {
	timeout, sprintRate, budget float64
	seed                        uint64
	queries                     int
}

// pathSchedule revisits each seed after a change, so a replayed path, a
// redrawn one and a return to an earlier path all occur, and the query
// count changes both ways under one seed.
var pathSchedule = []pathStep{
	{0.12, 18, 20, 5, 500},
	{0.05, 25, 4, 5, 500},
	{-1, 18, 20, 5, 500},
	{0.3, 12, 40, 5, 500},
	{0.12, 18, 20, 6, 300},
	{0.02, 30, 2, 6, 500},
	{0.12, 18, 20, 5, 500},
	{0.12, 18, 20, 5, 300},
	{0.2, 16, 10, 5, 300},
	{0.05, 25, 4, 5, 500},
}

// pathCase is one simulated system. build returns its base Params; it is
// called once per run so a stateful distribution can start each run in
// the state the schedule left it in (see
// TestRunnerSamplePathStatefulSequence).
type pathCase struct {
	name  string
	build func() queuesim.Params
	// noSprint drops the sprint mechanism (the PS discipline rejects it)
	// while the schedule still varies the sprint rate.
	noSprint bool
}

func basePathParams() queuesim.Params {
	return queuesim.Params{
		ArrivalRate: 8, Service: dist.NewExponential(10), ServiceRate: 10,
		RefillTime: 60, Warmup: 40,
	}
}

func pathCases() []pathCase {
	withArrival := func(d dist.Dist) func() queuesim.Params {
		return func() queuesim.Params {
			p := basePathParams()
			p.Arrival = d
			return p
		}
	}
	return []pathCase{
		{name: "exponential", build: basePathParams},
		{name: "pareto", build: func() queuesim.Params {
			p := basePathParams()
			p.ArrivalKind = dist.KindPareto
			return p
		}},
		{name: "hyperexponential", build: withArrival(dist.HyperexponentialFromMeanCV(1.0/8, 2))},
		{name: "empirical-service", build: func() queuesim.Params {
			p := basePathParams()
			p.Service = dist.NewEmpirical([]float64{0.05, 0.08, 0.11, 0.2, 0.02})
			return p
		}},
		{name: "ps", noSprint: true, build: func() queuesim.Params {
			p := basePathParams()
			p.Discipline = queuesim.Discipline{Kind: queuesim.DiscPS}
			return p
		}},
		{name: "serpt", build: func() queuesim.Params {
			p := basePathParams()
			p.Discipline = queuesim.Discipline{Kind: queuesim.DiscSERPT, PredictCV: 0.5}
			return p
		}},
		{name: "two-servers-random-dispatch", build: func() queuesim.Params {
			p := basePathParams()
			p.ArrivalRate = 16
			p.Servers = 2
			d, err := dispatch.RandomD(2)
			if err != nil {
				panic(err)
			}
			p.Dispatch = d
			return p
		}},
	}
}

// requireSameRun fails unless got and want match bit for bit.
func requireSameRun(t *testing.T, step int, got, want *queuesim.Result) {
	t.Helper()
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	if !same(got.RTs, want.RTs) || !same(got.QueueingTimes, want.QueueingTimes) {
		t.Fatalf("step %d: response or queueing times differ from a fresh Runner", step)
	}
	if got.SprintedCount != want.SprintedCount || got.Engages != want.Engages ||
		got.Exhaustions != want.Exhaustions || got.Preemptions != want.Preemptions ||
		got.MaxLive != want.MaxLive ||
		math.Float64bits(got.SprintSeconds) != math.Float64bits(want.SprintSeconds) ||
		math.Float64bits(got.Duration) != math.Float64bits(want.Duration) {
		t.Fatalf("step %d: scalars %+v, fresh Runner %+v", step, *got, *want)
	}
}

// runPathSchedule walks the schedule on one shared Runner, built from
// shared(), and on a fresh Runner per step, built from fresh().
func runPathSchedule(t *testing.T, c pathCase, shared, fresh func() queuesim.Params) {
	t.Helper()
	r := queuesim.NewRunner()
	var out queuesim.Result
	sprinted := false
	for i, st := range pathSchedule {
		apply := func(p queuesim.Params) queuesim.Params {
			p.Timeout, p.SprintRate, p.BudgetSeconds = st.timeout, st.sprintRate, st.budget
			if c.noSprint {
				p.Timeout = -1
			}
			p.Seed, p.NumQueries = st.seed, st.queries
			return p
		}
		if err := r.RunInto(apply(shared()), &out); err != nil {
			t.Fatalf("step %d: shared Runner: %v", i, err)
		}
		want, err := queuesim.NewRunner().Run(apply(fresh()))
		if err != nil {
			t.Fatalf("step %d: fresh Runner: %v", i, err)
		}
		requireSameRun(t, i, &out, want)
		sprinted = sprinted || out.Engages > 0
	}
	if !c.noSprint && !sprinted {
		t.Fatal("no step engaged a sprint; the schedule does not vary the policy's effect")
	}
}

func TestRunnerSamplePathMatchesFreshRunner(t *testing.T) {
	for _, c := range pathCases() {
		t.Run(c.name, func(t *testing.T) {
			runPathSchedule(t, c, c.build, c.build)
		})
	}
}

// TestRunnerSamplePathStatefulSequence runs the schedule over a
// dist.Sequence whose cursor persists across runs: as the arrivals, and
// under a dist.Scaled as the service. The shared Runner and the fresh
// Runners each get their own twin of the sequence, advanced through the
// same runs, so every step starts both from the same cursor. The twins
// are rebuilt at steps 0, 1 and 6: a rebuilt sequence encodes exactly
// like the one it replaces did at its start, so a Runner that replayed
// its previous path for it would leave its cursor behind for the next
// step. The cycle lengths, 7 and 11, do not divide a run's draws, so a
// cursor left behind replays different values.
func TestRunnerSamplePathStatefulSequence(t *testing.T) {
	cases := []struct {
		name   string
		values []float64
		set    func(p *queuesim.Params, seq *dist.Sequence)
	}{
		{"arrivals", []float64{0.3, 0.01, 0.02, 0.2, 0.05, 0.15, 0.12},
			func(p *queuesim.Params, seq *dist.Sequence) { p.Arrival = seq }},
		{"scaled-service", []float64{0.1, 0.05, 0.2, 0.08, 0.03, 0.12, 0.07, 0.15, 0.06, 0.09, 0.11},
			func(p *queuesim.Params, seq *dist.Sequence) { p.Service = dist.Scaled{Base: seq, Factor: 0.8} }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			twin := func() func() queuesim.Params {
				var seq *dist.Sequence
				calls := 0
				return func() queuesim.Params {
					if calls == 0 || calls == 1 || calls == 6 {
						seq = dist.NewSequence(c.values, 0.2)
					}
					calls++
					p := basePathParams()
					c.set(&p, seq)
					return p
				}
			}
			runPathSchedule(t, pathCase{name: c.name}, twin(), twin())
		})
	}
}

// TestRunnerSamplePathDistributionChange cycles the arrival and service
// distributions under the schedule's seeds: a change of rate, family,
// mixture weights or empirical values alone must redraw the path.
func TestRunnerSamplePathDistributionChange(t *testing.T) {
	variants := []func(p *queuesim.Params){
		func(p *queuesim.Params) {},
		func(p *queuesim.Params) { p.ArrivalRate = 9 },
		func(p *queuesim.Params) { p.ArrivalKind = dist.KindPareto },
		func(p *queuesim.Params) { p.Arrival = dist.HyperexponentialFromMeanCV(1.0/8, 2) },
		func(p *queuesim.Params) { p.Arrival = dist.HyperexponentialFromMeanCV(1.0/8, 3) },
		func(p *queuesim.Params) { p.Service = dist.NewEmpirical([]float64{0.05, 0.08, 0.11}) },
		func(p *queuesim.Params) { p.Service = dist.NewEmpirical([]float64{0.05, 0.08, 0.12}) },
		func(p *queuesim.Params) { p.Service = dist.NewExponential(11) },
	}
	cycle := func() func() queuesim.Params {
		calls := 0
		return func() queuesim.Params {
			p := basePathParams()
			variants[calls%len(variants)](&p)
			calls++
			return p
		}
	}
	runPathSchedule(t, pathCase{name: "distribution-change"}, cycle(), cycle())
}
