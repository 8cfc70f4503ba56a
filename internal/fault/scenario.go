package fault

import "fmt"

// Phase is one act of a chaos scenario: a fixed number of control steps
// during which the scripted perturbations hold steady. Zero values mean
// "healthy": unit rate factor, unbiased models, no bursts.
type Phase struct {
	// Name labels the phase in timelines and reports.
	Name string
	// Steps is how many controller steps the phase lasts.
	Steps int
	// RateFactor multiplies the scenario's base arrival rate (0 → 1).
	RateFactor float64
	// PrimaryBias multiplies the primary (Hybrid-tier) model's
	// predictions (0 → 1, honest). Values far from 1 model a diverged
	// model whose predictions no longer track reality.
	PrimaryBias float64
	// FallbackBias is PrimaryBias for the fallback (NoML-tier) model.
	FallbackBias float64
	// BurstProb and BurstSize script arrival bursts (see
	// ArrivalFaultConfig).
	BurstProb float64
	BurstSize int
	// NoiseCV is the lognormal sigma of multiplicative noise on
	// observed response times (0 → 0.05).
	NoiseCV float64
	// PrimaryFail makes every primary-model prediction error outright —
	// a crashed or unreachable model rather than a diverged one. The
	// controller's search breaker must trip and the chain must demote.
	PrimaryFail bool
}

// Degradation levels a scenario expectation refers to, mirroring
// online's fallback chain without importing it (online imports fault).
const (
	LevelHybridIdx = 0 // full model-driven control
	LevelNoMLIdx   = 1 // prediction-free μm fallback model
	LevelStaticIdx = 2 // last-known-good static timeout
)

// Expect encodes what a correct degradation controller must do under a
// scenario: how far down the fallback chain it is allowed (and, for
// fault scripts, required) to go, and where it must settle by the end.
type Expect struct {
	// MaxLevel is the exact deepest degradation level the run must
	// reach (0 hybrid, 1 NoML, 2 static).
	MaxLevel int
	// EndLevel is the level the controller must have recovered to by
	// the scenario's final step.
	EndLevel int
}

// Scenario is a reproducible chaos script: a seed plus a phase
// sequence, with the expected controller behaviour attached so replays
// are self-checking.
type Scenario struct {
	// Name identifies the scenario in sprintctl chaos -scenario and the
	// registry.
	Name string
	// Desc is a one-line summary for listings.
	Desc string
	// Seed drives every RNG in the replay; same seed, same run.
	Seed uint64
	// Phases execute in order.
	Phases []Phase
	// Expect is validated after a replay.
	Expect Expect
}

// Steps returns the scenario's total step count.
func (s Scenario) Steps() int {
	n := 0
	for _, p := range s.Phases {
		n += p.Steps
	}
	return n
}

// builtin is the scenario registry, kept as a sorted slice (no map
// iteration: replay order must be deterministic).
var builtin = []Scenario{
	{
		Name: "baseline",
		Desc: "healthy models, steady arrivals; the controller must stay at the Hybrid tier",
		Seed: 1,
		Phases: []Phase{
			{Name: "steady", Steps: 40},
		},
		Expect: Expect{MaxLevel: LevelHybridIdx, EndLevel: LevelHybridIdx},
	},
	{
		Name: "burst-storm",
		Desc: "arrival bursts while the primary model drifts; fall back to NoML, recover to Hybrid",
		Seed: 11,
		Phases: []Phase{
			{Name: "steady", Steps: 20},
			{Name: "storm", Steps: 30, RateFactor: 1.15, PrimaryBias: 0.4, BurstProb: 0.25, BurstSize: 5},
			{Name: "recovery", Steps: 60},
		},
		Expect: Expect{MaxLevel: LevelNoMLIdx, EndLevel: LevelHybridIdx},
	},
	{
		Name: "model-divergence",
		Desc: "primary then fallback predictions diverge; walk Hybrid → NoML → static, re-promote after recovery",
		Seed: 7,
		Phases: []Phase{
			{Name: "healthy", Steps: 25},
			{Name: "primary-diverges", Steps: 30, PrimaryBias: 0.25},
			{Name: "both-diverge", Steps: 30, PrimaryBias: 0.25, FallbackBias: 0.3},
			{Name: "recovery", Steps: 80},
		},
		Expect: Expect{MaxLevel: LevelStaticIdx, EndLevel: LevelHybridIdx},
	},
	{
		Name: "rate-drift",
		Desc: "arrival rate wanders with honest models; retunes happen, degradation must not",
		Seed: 23,
		Phases: []Phase{
			{Name: "low", Steps: 20, RateFactor: 0.6},
			{Name: "nominal", Steps: 20},
			{Name: "high", Steps: 20, RateFactor: 1.2},
			{Name: "settle", Steps: 20, RateFactor: 0.85},
		},
		Expect: Expect{MaxLevel: LevelHybridIdx, EndLevel: LevelHybridIdx},
	},
	{
		Name: "search-outage",
		Desc: "primary predictions fail outright from the first decision; the search breaker trips open and the chain serves from NoML",
		Seed: 31,
		Phases: []Phase{
			{Name: "outage", Steps: 30, PrimaryFail: true},
			{Name: "aftermath", Steps: 20, RateFactor: 1.2, PrimaryFail: true},
		},
		Expect: Expect{MaxLevel: LevelNoMLIdx, EndLevel: LevelNoMLIdx},
	},
}

// Scenarios returns the built-in chaos scripts in name order.
func Scenarios() []Scenario {
	out := make([]Scenario, len(builtin))
	copy(out, builtin)
	return out
}

// ScenarioByName looks up a built-in scenario.
func ScenarioByName(name string) (Scenario, error) {
	for _, s := range builtin {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("fault: unknown scenario %q", name)
}
