package online

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"mdsprint/internal/dist"
	"mdsprint/internal/fault"
	"mdsprint/internal/obs"
	"mdsprint/internal/profiler"
)

// ChaosOptions directs a chaos replay's side outputs. The zero value
// records into obs.Default() and keeps no ledger.
type ChaosOptions struct {
	// Metrics receives controller and injector metrics; nil records
	// into obs.Default().
	Metrics *obs.Registry
	// Ledger, when set, receives every selection's DecisionRecord,
	// stamped with the replay's virtual time. May be nil.
	Ledger *DecisionLedger
}

// The replay's fixed settings, beyond the surface and controller
// defaults: the nominal arrival rate (scaled per phase by RateFactor),
// the virtual-time length of one control step, the arrival-rate
// estimator's window and smoothing, and the lognormal sigma of the
// multiplicative noise on observed response times.
const (
	chaosBaseRate        = 0.7 * DefaultServiceRate
	chaosStepSeconds     = 4.0
	chaosEstimatorWindow = 60.0
	chaosEstimatorAlpha  = 0.3
	chaosNoiseCV         = 0.05
)

// ChaosStep is one control step of a replay timeline.
type ChaosStep struct {
	Step          int
	Phase         string
	Level         Level
	Timeout       float64
	EstimatedRate float64
	RealizedRate  float64
	ObservedRT    float64
}

// ChaosResult is a completed replay: the full decision timeline plus
// the degradation summary the scenario's expectations are checked
// against.
type ChaosResult struct {
	Scenario   string
	Seed       uint64
	Steps      []ChaosStep
	MaxLevel   Level
	EndLevel   Level
	Demotions  int
	Promotions int
}

// Fingerprint hashes the controller's decision timeline (level, timeout,
// rate estimate and observation per step). Two replays of one scenario
// must produce identical fingerprints — the determinism contract the
// chaos tests assert.
func (r *ChaosResult) Fingerprint() string {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		//lint:ignore errdrop fnv's Write is documented to never fail
		_, _ = h.Write(buf[:])
	}
	for _, s := range r.Steps {
		word(uint64(s.Level))
		word(math.Float64bits(s.Timeout))
		word(math.Float64bits(s.EstimatedRate))
		word(math.Float64bits(s.ObservedRT))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Violations checks the replay against the scenario's expectations and
// returns a description of each breach (empty means the controller
// behaved).
func (r *ChaosResult) Violations(sc fault.Scenario) []string {
	var out []string
	if int(r.MaxLevel) != sc.Expect.MaxLevel {
		out = append(out, fmt.Sprintf("max degradation level %s (%d), expected %d",
			r.MaxLevel, int(r.MaxLevel), sc.Expect.MaxLevel))
	}
	if int(r.EndLevel) != sc.Expect.EndLevel {
		out = append(out, fmt.Sprintf("ended at level %s (%d), expected %d",
			r.EndLevel, int(r.EndLevel), sc.Expect.EndLevel))
	}
	return out
}

// RunChaos replays a fault scenario against a FallbackController in
// virtual time: a synthetic Poisson arrival stream (perturbed by the
// scenario's burst injection) feeds the rate estimator, the controller
// picks timeouts, and observed response times come from the ground-truth
// surface under scripted model bias and multiplicative noise. The whole
// replay is a deterministic function of the scenario seed.
func RunChaos(sc fault.Scenario, opt ChaosOptions) (*ChaosResult, error) {
	if len(sc.Phases) == 0 {
		return nil, fmt.Errorf("online: scenario %q has no phases", sc.Name)
	}

	mu, gain, sweet := DefaultServiceRate, DefaultSprintGain, DefaultSweetTimeout
	primary := NewSurfaceModel("chaos-primary", mu, gain, sweet)
	fallbck := NewSurfaceModel("chaos-fallback", mu, gain, sweet)

	// The retune breaker trips on the first failed search: a scripted
	// outage makes every primary prediction error, so the breaker opens
	// immediately and the chain's demote-and-retry takes over. Healthy
	// scenarios never fail a search, so a closed breaker is
	// behaviour-neutral and existing fingerprints are unchanged.
	fc, err := NewFallbackController(FallbackConfig{
		Primary:    primary,
		Fallback:   fallbck,
		Dataset:    &profiler.Dataset{ServiceRate: mu, MarginalRate: mu * (1 + gain)},
		MaxTimeout: DefaultMaxTimeout,
		AnnealIter: DefaultAnnealIter,
		Seed:       sc.Seed,
		Metrics:    opt.Metrics,
		Breaker: fault.NewBreaker(fault.BreakerConfig{
			Name:             "chaos-retune",
			FailureThreshold: 1,
			Metrics:          opt.Metrics,
		}),
		Ledger: opt.Ledger,
	})
	if err != nil {
		return nil, err
	}

	est, err := NewRateEstimator(chaosEstimatorWindow, chaosEstimatorAlpha)
	if err != nil {
		return nil, err
	}
	// realized tracks the post-perturbation arrival rate with no
	// smoothing: the "true" load observations are generated under.
	realized, err := NewRateEstimator(chaosEstimatorWindow, 0)
	if err != nil {
		return nil, err
	}

	root := dist.NewRNG(sc.Seed ^ 0xc4a05c7a11e57a1e)
	arrivalRNG := root.Split()
	noiseRNG := root.Split()

	res := &ChaosResult{Scenario: sc.Name, Seed: sc.Seed}
	now := 0.0
	nextArrival := math.Inf(1) // armed per phase below
	step := 0
	for pi, ph := range sc.Phases {
		rateFactor := ph.RateFactor
		if rateFactor <= 0 {
			rateFactor = 1
		}
		lambda := chaosBaseRate * rateFactor
		primary.SetBias(ph.PrimaryBias)
		primary.SetFailing(ph.PrimaryFail)
		fallbck.SetBias(ph.FallbackBias)
		perturb := fault.NewArrivalFaults(fault.ArrivalFaultConfig{
			Seed:      sc.Seed + uint64(pi)*0x9e3779b97f4a7c15,
			BurstProb: ph.BurstProb,
			BurstSize: ph.BurstSize,
			Metrics:   opt.Metrics,
		})
		nextArrival = now + arrivalRNG.ExpFloat64()/lambda
		for s := 0; s < ph.Steps; s++ {
			stepEnd := now + chaosStepSeconds
			var batch []float64
			for nextArrival < stepEnd {
				batch = append(batch, nextArrival)
				nextArrival += arrivalRNG.ExpFloat64() / lambda
			}
			for _, t := range perturb.Perturb(batch) {
				est.Observe(t)
				realized.Observe(t)
			}
			now = stepEnd

			rate := est.Rate(now)
			if rate <= 0 {
				rate = lambda // estimator not warmed up yet
			}
			to, err := fc.TimeoutCtx(context.Background(), rate)
			if err != nil {
				return nil, fmt.Errorf("online: chaos %q step %d: %w", sc.Name, step, err)
			}
			real := realized.Rate(now)
			if real <= 0 {
				real = lambda
			}
			truth := SurfaceRT(mu, gain, sweet, real, to)
			sigma := chaosNoiseCV
			observed := truth * math.Exp(sigma*noiseRNG.NormFloat64()-sigma*sigma/2)
			// Health verdicts start after the estimator's first full
			// window: before that, estimate-vs-realized mismatch is a
			// warmup artifact, not evidence about the model.
			if now >= chaosEstimatorWindow {
				fc.Observe(rate, observed)
			}

			lvl := fc.Level()
			if lvl > res.MaxLevel {
				res.MaxLevel = lvl
			}
			res.Steps = append(res.Steps, ChaosStep{
				Step:          step,
				Phase:         ph.Name,
				Level:         lvl,
				Timeout:       to,
				EstimatedRate: rate,
				RealizedRate:  real,
				ObservedRT:    observed,
			})
			opt.Ledger.StampVirtual(now)
			step++
		}
	}
	res.EndLevel = fc.Level()
	res.Demotions, res.Promotions = fc.Counts()
	return res, nil
}
