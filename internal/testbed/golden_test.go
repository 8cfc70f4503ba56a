package testbed

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"mdsprint/internal/dist"
	"mdsprint/internal/mech"
	"mdsprint/internal/sprint"
	"mdsprint/internal/workload"
)

// goldenCase is one configuration of the testbed's golden matrix, with a
// check that the run actually reached the branch the case is named for.
type goldenCase struct {
	name  string
	cfg   Config
	check func(*Result) string // "" when the case exercised its branch
	want  uint64
}

// hashResult folds every QueryRecord field (floats by their exact bit
// patterns) plus the run-level totals into one FNV-64a digest.
func hashResult(r *Result) uint64 {
	h := fnv.New64a()
	var b []byte
	u := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	f := func(v float64) { u(math.Float64bits(v)) }
	flag := func(v bool) {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	u(uint64(len(r.Queries)))
	for i := range r.Queries {
		q := &r.Queries[i]
		u(uint64(q.ID))
		u(uint64(len(q.Class)))
		b = append(b, q.Class...)
		f(q.Arrival)
		f(q.Start)
		f(q.Depart)
		f(q.ServiceTime)
		f(q.SprintTau)
		f(q.SprintSeconds)
		flag(q.TimedOut)
		flag(q.Sprinted)
		flag(q.Warm)
	}
	u(uint64(r.SprintedCount))
	f(r.Duration)
	//lint:ignore errdrop fnv's Write is documented to never fail
	h.Write(b)
	return h.Sum64()
}

// countQueries counts measured queries satisfying pred.
func countQueries(r *Result, pred func(*QueryRecord) bool) int {
	n := 0
	for i := range r.Queries {
		if pred(&r.Queries[i]) {
			n++
		}
	}
	return n
}

// requireSome returns a failure note unless at least one measured query
// satisfies pred.
func requireSome(what string, pred func(*QueryRecord) bool) func(*Result) string {
	return func(r *Result) string {
		if countQueries(r, pred) == 0 {
			return "no query " + what
		}
		return ""
	}
}

func goldenCases() []goldenCase {
	jacobi := workload.MustByName("Jacobi")
	leuk := workload.MustByName("Leuk")
	base := func(c *workload.Class, m mech.Mechanism, util float64, p sprint.Policy) Config {
		return Config{
			Mix:         workload.SingleClass(c),
			Mechanism:   m,
			Policy:      p,
			ArrivalRate: util * sprint.QPH(m.SustainedQPH(c)),
			NumQueries:  600,
			Warmup:      60,
			Seed:        11,
		}
	}
	engagedMidway := func(q *QueryRecord) bool { return q.Sprinted && q.SprintTau > 0 }
	// A timed-out query that never sprinted was refused by an empty budget.
	refused := func(q *QueryRecord) bool { return q.TimedOut && !q.Sprinted }
	// Under a hard budget a sprint engages at max(dispatch, timeout); one
	// whose charged seconds end before departure was cut off by budget
	// exhaustion.
	cutOff := func(timeout float64) func(*QueryRecord) bool {
		return func(q *QueryRecord) bool {
			return q.Sprinted && math.Max(q.Start, q.Arrival+timeout)+q.SprintSeconds < q.Depart-1e-9
		}
	}

	tight := base(jacobi, mech.DVFS{}, 0.8, sprint.Policy{
		Timeout: 20, BudgetSeconds: 60, RefillTime: 400, Speedup: 1e9,
	})
	window := base(jacobi, mech.DVFS{}, 0.8, sprint.Policy{
		Timeout: 30, BudgetSeconds: 120, RefillTime: 300, Speedup: 1e9, Refill: sprint.RefillWindow,
	})
	slots := base(jacobi, mech.CoreScale{}, 0.7, sprint.Policy{
		Timeout: 40, BudgetSeconds: 300, RefillTime: 500, Speedup: 1e9,
	})
	slots.Slots = 3
	slots.ArrivalRate *= 3
	phased := Config{
		Mix:       workload.MixII(),
		Mechanism: mech.CoreScale{},
		Policy: sprint.Policy{
			Timeout: 60, BudgetSeconds: 400, RefillTime: 800, Speedup: 1e9,
		},
		ArrivalRate: 0.85 * workload.MixII().SustainedRate(),
		NumQueries:  600,
		Warmup:      60,
		Seed:        12,
	}
	overrides := base(jacobi, mech.DVFS{}, 0.6, sprint.Policy{
		Timeout: 25, BudgetSeconds: 150, RefillTime: 300, Speedup: 1e9,
	})
	overrides.ServiceOverride = dist.NewExponential(1 / 60.0)
	overrides.ArrivalOverride = dist.NewSequence([]float64{40, 90, 15, 200, 70}, 0.3)
	soft := base(leuk, mech.Throttle{Fraction: 0.5}, 0.7, sprint.Policy{
		Timeout: 15, BudgetSeconds: 30, RefillTime: 300, Speedup: 2, Soft: true, Refill: sprint.RefillPaused,
	})
	soft.LoadCoeff = 0.2
	// Unit interarrivals, service times cycling 4, 1, 2, a 2 s timeout
	// and a 2 s budget over two slots put an arrival, a departure, a
	// timeout and a budget interrupt on one instant (t = 5), and pairs
	// of them on others in both scheduling orders; load coupling makes
	// the queue length at a sprint's engage show in its departure. A
	// tie broken by event kind or by where an event is kept, instead of
	// by (time, seq), changes the records.
	ties := Config{
		Mix:       workload.SingleClass(jacobi),
		Mechanism: mech.DVFS{},
		Policy: sprint.Policy{
			Timeout: 2, BudgetSeconds: 2, RefillTime: 8, Speedup: 2, Refill: sprint.RefillWindow,
		},
		ArrivalRate:     1,
		ArrivalOverride: dist.Deterministic{Value: 1},
		ServiceOverride: dist.NewSequence([]float64{4, 1, 2}, 0),
		Slots:           2,
		NumQueries:      18,
		LoadCoeff:       1,
		Seed:            1,
	}

	return []goldenCase{
		{
			name:  "no-sprint",
			cfg:   base(jacobi, mech.DVFS{}, 0.7, sprint.Policy{Timeout: -1}),
			check: func(r *Result) string { return noneIf(r.SprintedCount != 0, "a query sprinted") },
			want:  0x15e974f7c9ca689d,
		},
		{
			name: "full-sprint",
			cfg: base(leuk, mech.DVFS{}, 0.5, sprint.Policy{
				Timeout: 0, BudgetSeconds: 1e15, RefillTime: 1, Speedup: 1e9,
			}),
			check: func(r *Result) string {
				return noneIf(r.SprintedCount != len(r.Queries), "not every query sprinted")
			},
			want: 0x487d77f01296381d,
		},
		{
			name: "tight-budget-exhaustion",
			cfg:  tight,
			check: func(r *Result) string {
				if msg := requireSome("refused a sprint", refused)(r); msg != "" {
					return msg
				}
				return requireSome("cut off by exhaustion", cutOff(tight.Policy.Timeout))(r)
			},
			want: 0xb19d9be04d197199,
		},
		{name: "window-refill", cfg: window, check: requireSome("refused a sprint", refused), want: 0x74ad2b7931428446},
		{name: "three-slots", cfg: slots, check: requireSome("sprinted midway", engagedMidway), want: 0xedb360f7f459d3ff},
		{name: "phased-mix-toggle", cfg: phased, check: requireSome("sprinted midway", engagedMidway), want: 0xe12e5fc71fc2b752},
		{name: "service-arrival-override", cfg: overrides, check: requireSome("sprinted midway", engagedMidway), want: 0x049c2e486780aa8c},
		{
			name:  "soft-paused-load-coupled",
			cfg:   soft,
			check: requireSome("sprinted midway", engagedMidway),
			want:  0x073fb9750b6a9f47,
		},
		{name: "same-time-ties", cfg: ties, check: allFourAtOnce(ties.Policy.Timeout), want: 0xf6dee5e9099a1f8e},
	}
}

// allFourAtOnce returns a check that some instant carries an arrival, a
// departure, a timeout and a budget interrupt, read off the records: a
// query timing out there, and a sprint cut off there by an empty budget
// (under a hard budget a sprint engages at max(dispatch, timeout), so
// its charged seconds end at the interrupt when that comes first).
func allFourAtOnce(timeout float64) func(*Result) string {
	return func(r *Result) string {
		at := func(t float64, pred func(*QueryRecord) float64) bool {
			for i := range r.Queries {
				if math.Float64bits(pred(&r.Queries[i])) == math.Float64bits(t) {
					return true
				}
			}
			return false
		}
		timedOut := func(q *QueryRecord) float64 {
			if !q.TimedOut {
				return math.NaN()
			}
			return q.Arrival + timeout
		}
		cutOff := func(q *QueryRecord) float64 {
			if !q.Sprinted {
				return math.NaN()
			}
			if end := math.Max(q.Start, q.Arrival+timeout) + q.SprintSeconds; end < q.Depart {
				return end
			}
			return math.NaN()
		}
		for i := range r.Queries {
			t := r.Queries[i].Arrival
			if at(t, func(q *QueryRecord) float64 { return q.Depart }) && at(t, timedOut) && at(t, cutOff) {
				return ""
			}
		}
		return "no instant carries an arrival, a departure, a timeout and a budget interrupt"
	}
}

// noneIf returns msg when bad holds, else "".
func noneIf(bad bool, msg string) string {
	if bad {
		return msg
	}
	return ""
}

// TestGoldenQueryRecords pins the testbed bit for bit. The testbed is the
// ground truth behind every profiled dataset and every EXPERIMENTS.md
// number, so any change to its event engine, queue or execution
// bookkeeping must leave every record of this matrix unchanged. A
// mismatch means the change altered ground truth; only update a digest
// for an intended change to the testbed's semantics.
func TestGoldenQueryRecords(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			r := MustRun(c.cfg)
			if msg := c.check(r); msg != "" {
				t.Fatalf("case does not exercise its branch: %s", msg)
			}
			if got := hashResult(r); got != c.want {
				t.Errorf("digest %#016x, want %#016x", got, c.want)
			}
		})
	}
}

// TestRunIntoMatchesRun replays the golden matrix into one reused
// Result, forward and then backward so the record count both grows and
// shrinks, and requires each replay to equal a fresh Run record for
// record and to keep the case's golden digest. Every run takes its
// config from a fresh goldenCases(): a dist.Sequence override keeps a
// cursor, so a shared one would start each run where the last stopped.
func TestRunIntoMatchesRun(t *testing.T) {
	n := len(goldenCases())
	var res Result
	for pass := 0; pass < 2; pass++ {
		for j := 0; j < n; j++ {
			k := j
			if pass == 1 {
				k = n - 1 - j
			}
			c := goldenCases()[k]
			if err := RunInto(c.cfg, &res); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			want := MustRun(goldenCases()[k].cfg)
			if len(res.Queries) != len(want.Queries) {
				t.Fatalf("%s: %d records, Run gives %d", c.name, len(res.Queries), len(want.Queries))
			}
			for i := range want.Queries {
				if res.Queries[i] != want.Queries[i] {
					t.Fatalf("%s: record %d = %+v, Run gives %+v", c.name, i, res.Queries[i], want.Queries[i])
				}
			}
			if got := hashResult(&res); got != c.want {
				t.Fatalf("%s: digest %#016x, want %#016x", c.name, got, c.want)
			}
		}
	}
}

// TestServerMemoAcrossConfigs runs the golden matrix on one server,
// each case followed by variants that change one input of a memoized
// curve or distribution (the commanded speedup, the mechanism family,
// the runtime-effects flag, the arrival kind and rate, the service CV),
// forward and then backward, and requires every run to equal a fresh
// server's record for record. Every run builds the list afresh, so no
// two runs share a dist.Sequence override's cursor.
func TestServerMemoAcrossConfigs(t *testing.T) {
	configs := func() []Config {
		var cfgs []Config
		for _, c := range goldenCases() {
			cfgs = append(cfgs, c.cfg)
			v := c.cfg
			v.Policy.Speedup = 1.2
			cfgs = append(cfgs, v)
			v = c.cfg
			if _, ok := v.Mechanism.(mech.CoreScale); ok {
				v.Mechanism = mech.DVFS{}
			} else {
				v.Mechanism = mech.CoreScale{}
			}
			cfgs = append(cfgs, v)
			v = c.cfg
			v.DisableRuntimeEffects = !v.DisableRuntimeEffects
			cfgs = append(cfgs, v)
			v = c.cfg
			v.ArrivalKind = dist.KindPareto
			cfgs = append(cfgs, v)
			v = c.cfg
			v.ArrivalRate *= 1.1
			cfgs = append(cfgs, v)
			v = c.cfg
			v.Mix.Components = nil
			for _, comp := range c.cfg.Mix.Components {
				cls := *comp.Class
				cls.ServiceCV *= 2
				v.Mix.Components = append(v.Mix.Components, workload.Component{Class: &cls, Weight: comp.Weight})
			}
			cfgs = append(cfgs, v)
		}
		return cfgs
	}
	run := func(s *server, cfg Config) []QueryRecord {
		s.reset(cfg.withDefaults(), nil)
		s.run()
		var res Result
		s.result(&res)
		s.release()
		return res.Queries
	}
	n := len(configs())
	shared := new(server)
	for pass := 0; pass < 2; pass++ {
		for j := 0; j < n; j++ {
			k := j
			if pass == 1 {
				k = n - 1 - j
			}
			got, want := run(shared, configs()[k]), run(new(server), configs()[k])
			if len(got) != len(want) {
				t.Fatalf("config %d: %d records, fresh server gives %d", k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("config %d: record %d = %+v, fresh server gives %+v", k, i, got[i], want[i])
				}
			}
		}
	}
}
