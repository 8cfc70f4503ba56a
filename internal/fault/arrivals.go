package fault

import "mdsprint/internal/obs"

// ArrivalFaultConfig configures an ArrivalFaults injector.
type ArrivalFaultConfig struct {
	// Seed drives the per-arrival fault decisions.
	Seed uint64
	// BurstProb is the per-arrival probability of injecting a burst of
	// BurstSize extra arrivals immediately after it.
	BurstProb float64
	// BurstSize is how many arrivals each burst injects (default 4).
	BurstSize int
	// BurstSpacing is the gap in seconds between injected burst
	// arrivals (default 0.02).
	BurstSpacing float64
	// Metrics receives the injector's counters; nil records into
	// obs.Default().
	Metrics *obs.Registry
}

// ArrivalFaults perturbs an arrival-timestamp stream with bursts before
// it reaches online.RateEstimator. The injector is stateful — fault
// decisions are keyed by a running arrival index and bursts shift every
// later timestamp — so one injector instance can perturb a stream
// delivered across many Perturb calls and still be deterministic. Not
// safe for concurrent use (neither is the estimator it feeds).
type ArrivalFaults struct {
	cfg   ArrivalFaultConfig
	seen  uint64  // arrivals processed so far, the determinism key
	last  float64 // last emitted timestamp
	begun bool

	bursts   *obs.Counter
	injected *obs.Counter
}

// NewArrivalFaults returns an injector for one arrival stream.
func NewArrivalFaults(cfg ArrivalFaultConfig) *ArrivalFaults {
	if cfg.BurstSize <= 0 {
		cfg.BurstSize = 4
	}
	if cfg.BurstSpacing <= 0 {
		cfg.BurstSpacing = 0.02
	}
	reg := obs.Or(cfg.Metrics)
	return &ArrivalFaults{
		cfg:      cfg,
		bursts:   reg.Counter("mdsprint_fault_bursts_total", "arrival bursts injected"),
		injected: reg.Counter("mdsprint_fault_burst_arrivals_total", "extra arrivals injected by bursts"),
	}
}

// Perturb applies burst injection to a batch of ascending arrival
// timestamps and returns the perturbed batch, still ascending. Each
// inter-arrival gap is kept; bursts append BurstSize closely spaced
// arrivals after the triggering one.
func (f *ArrivalFaults) Perturb(times []float64) []float64 {
	out := make([]float64, 0, len(times))
	for _, t := range times {
		rng := itemRNG(f.cfg.Seed, chanArrivals, f.seen)
		f.seen++
		if !f.begun {
			f.begun = true
			f.last = t
		} else {
			gap := t - f.last
			if gap < 0 {
				gap = 0
			}
			f.last += gap
		}
		out = append(out, f.last)
		if f.cfg.BurstProb > 0 && rng.Float64() < f.cfg.BurstProb {
			f.bursts.Inc()
			for j := 0; j < f.cfg.BurstSize; j++ {
				f.last += f.cfg.BurstSpacing
				out = append(out, f.last)
				f.injected.Inc()
			}
		}
	}
	return out
}
